package wire

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/simhost"
	"repro/internal/types"
)

func testRuntime(t *testing.T) (*Runtime, *Transport) {
	t.Helper()
	tr, err := New(0, nil, WithPlanes(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	book := NewBook()
	for p, ep := range tr.Endpoints() {
		if err := book.Add(0, p, ep); err != nil {
			t.Fatal(err)
		}
	}
	tr.SetBook(book)
	return NewRuntime(tr, "test", 1), tr
}

func TestRuntimeIdentityAndClock(t *testing.T) {
	r, _ := testRuntime(t)
	defer r.Close()
	if r.Node() != 0 || r.Self() != (types.Addr{Node: 0, Service: "test"}) {
		t.Fatalf("identity: node %v self %v", r.Node(), r.Self())
	}
	if d := time.Since(r.Now()); d < 0 || d > time.Minute {
		t.Fatalf("Now is not wall-clock: %v off", d)
	}
	if r.Rand() == nil {
		t.Fatal("nil Rand")
	}
}

func TestRuntimeAfterFiresInLoop(t *testing.T) {
	r, _ := testRuntime(t)
	defer r.Close()
	fired := make(chan struct{})
	r.Do(func() {
		r.After(5*time.Millisecond, func() { close(fired) })
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("After never fired")
	}
}

func TestRuntimeTimerStop(t *testing.T) {
	r, _ := testRuntime(t)
	defer r.Close()
	var fired atomic.Int32
	var tm clock.Timer
	r.Do(func() {
		tm = r.After(20*time.Millisecond, func() { fired.Add(1) })
	})
	tm.Stop()
	time.Sleep(80 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("stopped timer fired")
	}
}

// TestRuntimeCloseCancelsTimers is the regression test for the rt.Runtime
// timer-cancellation contract on the wall clock: once Close returns, no
// After callback may run — neither pending timers nor timers that already
// fired and are waiting to enter the loop.
func TestRuntimeCloseCancelsTimers(t *testing.T) {
	r, _ := testRuntime(t)
	var fired atomic.Int32
	r.Do(func() {
		// A spread of delays so that at Close time some timers have run,
		// some are mid-flight, and some are pending.
		for i := 0; i < 100; i++ {
			d := time.Duration(rand.Intn(20)) * time.Millisecond
			r.After(d, func() { fired.Add(1) })
		}
	})
	time.Sleep(10 * time.Millisecond)
	r.Close()
	atClose := fired.Load()
	time.Sleep(100 * time.Millisecond)
	if got := fired.Load(); got != atClose {
		t.Fatalf("%d callbacks ran after Close returned", got-atClose)
	}
	// After on a closed runtime is inert.
	r.Do(func() {
		r.After(time.Millisecond, func() { fired.Add(1) })
	})
	time.Sleep(30 * time.Millisecond)
	if fired.Load() != atClose {
		t.Fatal("After armed on a closed runtime fired")
	}
}

// TestRuntimeStoppedTimersAreFreed is the leak regression test: a timer
// armed through After and stopped before it fires (rpc.Caller's attempt
// timer, on every reply) must leave nothing behind in the runtime.
func TestRuntimeStoppedTimersAreFreed(t *testing.T) {
	r, _ := testRuntime(t)
	defer r.Close()
	const n = 50_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.Do(func() {
		for i := 0; i < n; i++ {
			r.After(time.Hour, func() {}).Stop()
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew >= 16*n {
		t.Fatalf("heap grew %d B over %d stopped timers (%d B each), want < 16 B each", grew, n, grew/n)
	}
}

func TestRuntimeAttachStopsReceivingAfterClose(t *testing.T) {
	r, tr := testRuntime(t)
	var got atomic.Int32
	r.Attach(func(types.Message) { got.Add(1) })

	send := func() {
		if err := tr.Send(types.Message{
			From: types.Addr{Node: 0, Service: "peer"},
			To:   r.Self(), NIC: 0, Type: "ping",
		}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	for start := time.Now(); got.Load() == 0; time.Sleep(2 * time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("message never delivered")
		}
	}
	r.Close()
	send()
	time.Sleep(50 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatalf("closed runtime received %d extra messages", got.Load()-1)
	}
}

// timerProc is a minimal simhost process that arms a long timer on start.
type timerProc struct {
	fired *atomic.Int32
}

func (p *timerProc) Service() string { return "timerproc" }
func (p *timerProc) Start(h *simhost.Handle) {
	h.After(15*time.Millisecond, func() { p.fired.Add(1) })
}
func (p *timerProc) Receive(types.Message) {}
func (p *timerProc) OnStop()               {}

// TestHostTimersDieWithProcessOnWallClock re-checks the same contract for
// full simhost processes running over the wire substrate: killing the
// process cancels its wall-clock timers.
func TestHostTimersDieWithProcessOnWallClock(t *testing.T) {
	_, tr := testRuntime(t)
	loop := tr.Loop()
	clk := NewLoopClock(loop, clock.Real{})
	var fired atomic.Int32
	var host *simhost.Host
	loop.Run(func() {
		host = simhost.New(0, tr, clk, rand.New(rand.NewSource(1)), simhost.Costs{})
		if _, err := host.Spawn(&timerProc{fired: &fired}); err != nil {
			t.Error(err)
		}
	})
	loop.Run(func() {
		if err := host.Kill("timerproc"); err != nil {
			t.Error(err)
		}
	})
	time.Sleep(80 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("killed process's wall-clock timer fired")
	}
}
