package simhost

import (
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/types"
)

// Handle is a process's window onto its host: it sends messages, schedules
// timers, and reads the clock. Every timer armed through a handle checks
// the dead flag before running its callback, so once the process dies no
// callback runs — timers still pending fire into a no-op — and daemon
// implementations cannot leak activity past their own death.
type Handle struct {
	host    *Host
	service string
	pid     types.ProcID
	dead    bool
}

func newHandle(h *Host, service string, pid types.ProcID) *Handle {
	return &Handle{host: h, service: service, pid: pid}
}

// Node returns the hosting node's ID.
func (hd *Handle) Node() types.NodeID { return hd.host.id }

// PID returns the process ID.
func (hd *Handle) PID() types.ProcID { return hd.pid }

// Self returns the process's network address.
func (hd *Handle) Self() types.Addr {
	return types.Addr{Node: hd.host.id, Service: hd.service}
}

// Now reads the host clock.
func (hd *Handle) Now() time.Time { return hd.host.clk.Now() }

// Rand returns the host's deterministic random source.
func (hd *Handle) Rand() *rand.Rand { return hd.host.rng }

// Host exposes the hosting node (for co-located, same-node interactions
// such as the GSD supervising its local services, or a detector sampling
// local usage).
func (hd *Handle) Host() *Host { return hd.host }

// Send transmits a message from this process. Send failures are silent at
// this level, like UDP; protocols that need acknowledgement implement it.
func (hd *Handle) Send(to types.Addr, nic int, typ string, payload any) {
	if hd.dead {
		return
	}
	_ = hd.host.net.Send(types.Message{
		From: hd.Self(), To: to, NIC: nic, Type: typ, Payload: payload,
	})
}

// After schedules f to run after d, unless the process dies first.
func (hd *Handle) After(d time.Duration, f func()) clock.Timer {
	if hd.dead {
		return deadTimer{}
	}
	return hd.host.clk.AfterFunc(d, func() {
		if !hd.dead {
			f()
		}
	})
}

// Every schedules f to run repeatedly at the given period until the process
// dies or the returned ticker is stopped.
func (hd *Handle) Every(period time.Duration, f func()) *clock.Ticker {
	return clock.NewTicker(handleClock{hd}, period, f)
}

// handleClock adapts a Handle to clock.Clock so clock.Ticker timers are
// lifecycle-bound to the process.
type handleClock struct{ hd *Handle }

func (hc handleClock) Now() time.Time { return hc.hd.Now() }
func (hc handleClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	return hc.hd.After(d, f)
}

// Exit terminates the process voluntarily (a job finishing). Watchers see
// an ExitNormal event.
func (hd *Handle) Exit() {
	if hd.dead {
		return
	}
	hd.host.exit(hd.service, hd.pid)
}

// shutdown marks the handle dead, suppressing every later callback of
// its timers.
func (hd *Handle) shutdown() { hd.dead = true }

type deadTimer struct{}

func (deadTimer) Stop() bool { return false }
