package wire

import (
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/rt"
	"repro/internal/types"
)

// Runtime is a wall-clock rt.Runtime over a Transport, for protocol
// clients that are not simhost processes — a CLI querying a bulletin
// board, a test harness driving the heartbeat monitor, an external tool
// joining the event federation. (Full kernel daemons instead run inside
// simhost.Host, which sits on the same transport via simhost.Fabric.)
//
// It honours the rt.Runtime timer-cancellation contract by suppression:
// every After callback checks the dead flag Close sets, so no callback
// ever observes post-shutdown state; timers still pending at Close fire
// into a no-op. Callbacks and inbound messages run inside the
// transport's Loop; so does all Runtime state, which therefore needs no
// locking of its own.
type Runtime struct {
	tr   *Transport
	loop *Loop
	clk  LoopClock
	self types.Addr
	rng  *rand.Rand

	dead bool // loop-confined
}

// NewRuntime creates a runtime at the given service name on the
// transport's node. seed fixes the Rand stream.
func NewRuntime(tr *Transport, service string, seed int64) *Runtime {
	return &Runtime{
		tr:   tr,
		loop: tr.Loop(),
		clk:  NewLoopClock(tr.Loop(), clock.Real{}),
		self: types.Addr{Node: tr.Node(), Service: service},
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Attach registers recv as the runtime's inbound message handler. recv is
// invoked inside the Loop and never after Close.
func (r *Runtime) Attach(recv func(msg types.Message)) {
	r.tr.Register(r.self, func(msg types.Message) {
		if r.dead {
			return
		}
		recv(msg)
	})
}

// Node implements rt.Runtime.
func (r *Runtime) Node() types.NodeID { return r.self.Node }

// Self implements rt.Runtime.
func (r *Runtime) Self() types.Addr { return r.self }

// Now implements rt.Runtime.
func (r *Runtime) Now() time.Time { return r.clk.Now() }

// Rand implements rt.Runtime.
func (r *Runtime) Rand() *rand.Rand { return r.rng }

// Send implements rt.Runtime; failures are silent (datagram semantics).
func (r *Runtime) Send(to types.Addr, nic int, typ string, payload any) {
	if r.dead {
		return
	}
	_ = r.tr.Send(types.Message{
		From: r.self, To: to, NIC: nic, Type: typ, Payload: payload,
	})
}

// After implements rt.Runtime. The callback runs inside the Loop and is
// suppressed once the runtime is closed.
func (r *Runtime) After(d time.Duration, f func()) clock.Timer {
	if r.dead {
		return deadTimer{}
	}
	return r.clk.AfterFunc(d, func() {
		if !r.dead {
			f()
		}
	})
}

// Do runs f inside the node's Loop — the only safe way for outside
// goroutines (main, tests) to call protocol code bound to this runtime.
func (r *Runtime) Do(f func()) { r.loop.Run(f) }

// Close unregisters the runtime and suppresses every later callback of
// its timers. It must be called from outside the Loop.
func (r *Runtime) Close() {
	r.loop.Run(func() { r.dead = true })
	r.tr.Unregister(r.self)
}

type deadTimer struct{}

func (deadTimer) Stop() bool { return false }

var _ rt.Runtime = (*Runtime)(nil)
