package rpc

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/types"
)

// callerHarness is the sim-clock scaffolding every caller test shares.
type callerHarness struct {
	eng *sim.Engine
	f   *rt.Fake
}

func newCallerHarness() *callerHarness {
	eng := sim.New(1)
	return &callerHarness{eng: eng, f: rt.NewFake(0, "x", eng, eng.Rand())}
}

var (
	addrA = types.Addr{Node: 1, Service: types.SvcDB}
	addrB = types.Addr{Node: 2, Service: types.SvcDB}
)

func TestCallerFirstAttemptResolves(t *testing.T) {
	h := newCallerHarness()
	c := NewCaller(h.f, Budget(3*time.Second))
	var sent []types.Addr
	var got any
	var gotErr error
	tok := c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA} },
		Send:    func(token uint64, to types.Addr) { sent = append(sent, to) },
		Done:    func(payload any, err error) { got, gotErr = payload, err },
	})
	if len(sent) != 1 || sent[0] != addrA {
		t.Fatalf("sent = %v, want one send to %v", sent, addrA)
	}
	if !c.Resolve(tok, "reply") {
		t.Fatal("Resolve reported token unknown")
	}
	h.eng.RunFor(10 * time.Second)
	if got != "reply" || gotErr != nil {
		t.Fatalf("got=%v err=%v", got, gotErr)
	}
	if len(sent) != 1 {
		t.Fatalf("resolved call kept retrying: %d sends", len(sent))
	}
	if c.Outstanding() != 0 {
		t.Fatal("entry leaked after resolve")
	}
}

func TestCallerRetriesWithinBudget(t *testing.T) {
	h := newCallerHarness()
	reg := metrics.NewRegistry()
	c := NewCaller(h.f, Options{Budget: 3 * time.Second, Metrics: reg})
	var sent int
	var got any
	var tok uint64
	tok = c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA} },
		Send: func(token uint64, to types.Addr) {
			sent++
			if token != tok && sent > 1 {
				t.Errorf("retry used token %d, want %d (reuse)", token, tok)
			}
			if sent == 2 {
				// Reply to the second attempt only.
				h.f.After(10*time.Millisecond, func() { c.Resolve(token, "late") })
			}
		},
		Done: func(payload any, err error) {
			if err != nil {
				t.Errorf("call failed: %v", err)
			}
			got = payload
		},
	})
	h.eng.RunFor(10 * time.Second)
	if got != "late" {
		t.Fatalf("payload = %v, want late", got)
	}
	if sent != 2 {
		t.Fatalf("sends = %d, want 2 (one retry)", sent)
	}
	st := ReadStats(reg)
	if st.Retries != 1 || st.OK != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 1 retry, 1 ok, 0 failures", st)
	}
}

func TestCallerBudgetExhaustion(t *testing.T) {
	h := newCallerHarness()
	reg := metrics.NewRegistry()
	c := NewCaller(h.f, Options{Budget: 3 * time.Second, Metrics: reg})
	start := h.f.Now()
	var done time.Time
	var gotErr error
	sent := 0
	c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA} },
		Send:    func(uint64, types.Addr) { sent++ },
		Done:    func(_ any, err error) { gotErr, done = err, h.f.Now() },
	})
	h.eng.RunFor(10 * time.Second)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if sent > DefaultMaxAttempts {
		t.Fatalf("sends = %d, exceeds MaxAttempts %d", sent, DefaultMaxAttempts)
	}
	if el := done.Sub(start); el > 3*time.Second {
		t.Fatalf("call outlived its budget: failed after %v", el)
	}
	if st := ReadStats(reg); st.Failures != 1 {
		t.Fatalf("stats = %+v, want 1 failure", st)
	}
	if c.Outstanding() != 0 {
		t.Fatal("entry leaked after budget exhaustion")
	}
}

func TestCallerFailoverObservesNewTargets(t *testing.T) {
	h := newCallerHarness()
	c := NewCaller(h.f, Budget(3*time.Second))
	// The access point migrates between attempts: the resolver switches
	// from A to B, as a federation view push would after a GSD recovery.
	current := addrA
	var sent []types.Addr
	var got any
	c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{current} },
		Send: func(token uint64, to types.Addr) {
			sent = append(sent, to)
			if to == addrB {
				h.f.After(time.Millisecond, func() { c.Resolve(token, "from-b") })
			}
		},
		Done: func(payload any, err error) {
			if err != nil {
				t.Errorf("call failed: %v", err)
			}
			got = payload
		},
	})
	h.f.After(500*time.Millisecond, func() { current = addrB })
	h.eng.RunFor(10 * time.Second)
	if got != "from-b" {
		t.Fatalf("payload = %v, want from-b", got)
	}
	if len(sent) != 2 || sent[0] != addrA || sent[1] != addrB {
		t.Fatalf("sends = %v, want [A B]", sent)
	}
}

func TestCallerSkipsOpenBreaker(t *testing.T) {
	h := newCallerHarness()
	bs := NewBreakers(BreakerConfig{Threshold: 1, Cooldown: time.Minute}, h.f.Now)
	c := NewCaller(h.f, Options{Budget: 3 * time.Second, Breakers: bs})
	bs.Failure(Key(addrA)) // A's breaker is open
	var sent []types.Addr
	var got any
	c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA, addrB} },
		Send: func(token uint64, to types.Addr) {
			sent = append(sent, to)
			h.f.After(time.Millisecond, func() { c.Resolve(token, "ok") })
		},
		Done: func(payload any, _ error) { got = payload },
	})
	h.eng.RunFor(time.Second)
	if got != "ok" {
		t.Fatalf("payload = %v, want ok", got)
	}
	if len(sent) != 1 || sent[0] != addrB {
		t.Fatalf("sends = %v, want straight to B (A's breaker open)", sent)
	}
}

func TestCallerAllBreakersOpen(t *testing.T) {
	h := newCallerHarness()
	bs := NewBreakers(BreakerConfig{Threshold: 1, Cooldown: time.Minute}, h.f.Now)
	c := NewCaller(h.f, Options{Budget: time.Second, Breakers: bs})
	bs.Failure(Key(addrA))
	var gotErr error
	c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA} },
		Send:    func(uint64, types.Addr) { t.Error("sent through an open breaker") },
		Done:    func(_ any, err error) { gotErr = err },
	})
	h.eng.RunFor(10 * time.Second)
	if !errors.Is(gotErr, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", gotErr)
	}
}

func TestCallerBreakerCooldownRecovery(t *testing.T) {
	h := newCallerHarness()
	bs := NewBreakers(BreakerConfig{Threshold: 1, Cooldown: 200 * time.Millisecond}, h.f.Now)
	c := NewCaller(h.f, Options{Budget: 3 * time.Second, Breakers: bs})
	bs.Failure(Key(addrA))
	var got any
	c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA} },
		Send: func(token uint64, to types.Addr) {
			h.f.After(time.Millisecond, func() { c.Resolve(token, "healed") })
		},
		Done: func(payload any, err error) {
			if err != nil {
				t.Errorf("call failed: %v", err)
			}
			got = payload
		},
	})
	h.eng.RunFor(10 * time.Second)
	if got != "healed" {
		t.Fatalf("payload = %v, want healed (half-open trial after cooldown)", got)
	}
	if bs.State(Key(addrA)) != StateClosed {
		t.Fatalf("breaker = %v after trial success, want closed", bs.State(Key(addrA)))
	}
}

func TestCallerPeersExtendFailover(t *testing.T) {
	h := newCallerHarness()
	c := NewCaller(h.f, Options{
		Budget: 3 * time.Second,
		Peers:  func() []types.Addr { return []types.Addr{addrB} },
	})
	var sent []types.Addr
	var got any
	var tok uint64
	bs := c.Breakers()
	tok = c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA} },
		Send: func(token uint64, to types.Addr) {
			sent = append(sent, to)
			if to == addrB {
				h.f.After(time.Millisecond, func() { c.Resolve(token, "peer") })
			}
		},
		Done: func(payload any, err error) {
			if err != nil {
				t.Errorf("call failed: %v", err)
			}
			got = payload
		},
	})
	_ = tok
	// A never answers; open its breaker so the retry falls to the peer.
	h.f.After(100*time.Millisecond, func() {
		bs.Failure(Key(addrA))
		bs.Failure(Key(addrA))
		bs.Failure(Key(addrA))
	})
	h.eng.RunFor(10 * time.Second)
	if got != "peer" {
		t.Fatalf("payload = %v, want peer (federation failover)", got)
	}
	if sent[len(sent)-1] != addrB {
		t.Fatalf("sends = %v, want last send to B", sent)
	}
}

func TestCallerNoTarget(t *testing.T) {
	h := newCallerHarness()
	c := NewCaller(h.f, Budget(time.Second))
	var gotErr error
	c.Go(Call{
		Targets: func() []types.Addr { return nil },
		Send:    func(uint64, types.Addr) { t.Error("sent with no target") },
		Done:    func(_ any, err error) { gotErr = err },
	})
	if !errors.Is(gotErr, ErrNoTarget) {
		t.Fatalf("err = %v, want ErrNoTarget", gotErr)
	}
	if c.Outstanding() != 0 {
		t.Fatal("entry leaked")
	}
}

func TestCallerCancel(t *testing.T) {
	h := newCallerHarness()
	c := NewCaller(h.f, Budget(time.Second))
	ran := false
	tok := c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA} },
		Send:    func(uint64, types.Addr) {},
		Done:    func(any, error) { ran = true },
	})
	c.Cancel(tok)
	h.eng.RunFor(10 * time.Second)
	if ran {
		t.Fatal("cancelled call ran Done")
	}
	if c.Outstanding() != 0 {
		t.Fatal("entry leaked after cancel")
	}
}

func TestCallerDuplicateReplyDropped(t *testing.T) {
	h := newCallerHarness()
	c := NewCaller(h.f, Budget(time.Second))
	done := 0
	tok := c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA} },
		Send:    func(uint64, types.Addr) {},
		Done:    func(any, error) { done++ },
	})
	if !c.Resolve(tok, "first") {
		t.Fatal("first resolve failed")
	}
	if c.Resolve(tok, "dup") {
		t.Fatal("duplicate reply resolved")
	}
	if done != 1 {
		t.Fatalf("Done ran %d times, want 1", done)
	}
}

func TestCallerResolveFromCreditsResponder(t *testing.T) {
	h := newCallerHarness()
	bs := NewBreakers(BreakerConfig{Threshold: 3, Cooldown: time.Minute}, h.f.Now)
	c := NewCaller(h.f, Options{Budget: 3 * time.Second, Breakers: bs})
	// B is two failures from opening; an undeserved credit would clear
	// that streak.
	bs.Failure(Key(addrB))
	bs.Failure(Key(addrB))
	// Attempt 1 goes to A; the target migrates to B before the retry;
	// then A's late reply resolves the call.
	current := addrA
	var tok uint64
	tok = c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{current} },
		Send:    func(uint64, types.Addr) {},
	})
	h.f.After(500*time.Millisecond, func() { current = addrB })
	h.f.After(1500*time.Millisecond, func() {
		if !c.ResolveFrom(tok, addrA, "late-from-a") {
			t.Error("ResolveFrom reported token unknown")
		}
	})
	h.eng.RunFor(2 * time.Second)
	// The responder A was credited: its timeout failure is cleared, so
	// two more failures stay under the threshold.
	bs.Failure(Key(addrA))
	bs.Failure(Key(addrA))
	if bs.State(Key(addrA)) != StateClosed {
		t.Fatalf("A = %v, want closed: responder's success should reset its streak", bs.State(Key(addrA)))
	}
	// The non-replying newest target B was not: one more failure opens it.
	bs.Failure(Key(addrB))
	if bs.State(Key(addrB)) != StateOpen {
		t.Fatalf("B = %v, want open: non-replier must not be credited", bs.State(Key(addrB)))
	}
}

func TestCallerResolveMultiTargetCreditsNothing(t *testing.T) {
	h := newCallerHarness()
	bs := NewBreakers(BreakerConfig{Threshold: 3, Cooldown: time.Minute}, h.f.Now)
	c := NewCaller(h.f, Options{Budget: 3 * time.Second, Breakers: bs})
	bs.Failure(Key(addrB))
	bs.Failure(Key(addrB))
	current := addrA
	var tok uint64
	tok = c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{current} },
		Send:    func(uint64, types.Addr) {},
	})
	h.f.After(500*time.Millisecond, func() { current = addrB })
	h.f.After(1500*time.Millisecond, func() {
		if !c.Resolve(tok, "late") {
			t.Error("Resolve reported token unknown")
		}
	})
	h.eng.RunFor(2 * time.Second)
	// Attempts went to two targets and the reply's origin is unknown, so
	// no breaker may be credited — B's streak must survive intact.
	bs.Failure(Key(addrB))
	if bs.State(Key(addrB)) != StateOpen {
		t.Fatalf("B = %v, want open: origin-less multi-target resolve must not credit the newest target", bs.State(Key(addrB)))
	}
}

func TestPolicyBackoffJitterBounds(t *testing.T) {
	h := newCallerHarness()
	p := Policy{Backoff: 40 * time.Millisecond, BackoffMax: 160 * time.Millisecond}.withDefaults(time.Second)
	for attempt := 1; attempt <= 6; attempt++ {
		cap := 40 * time.Millisecond << (attempt - 1)
		if cap > 160*time.Millisecond {
			cap = 160 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			d := p.backoff(attempt, h.f.Rand())
			if d < 0 || d > cap {
				t.Fatalf("backoff(%d) = %v, want in [0, %v]", attempt, d, cap)
			}
		}
	}
}
