package rpc

import (
	"errors"
	"testing"
	"time"

	"repro/internal/types"
)

// testAck and otherAck are reply payloads; testReq is not.
type testAck struct{ Token uint64 }
type otherAck struct{ Token uint64 }

func (a testAck) ReplyToken() uint64  { return a.Token }
func (a otherAck) ReplyToken() uint64 { return a.Token }

type testReq struct{ Token uint64 }

func reply(from types.Addr, payload any) types.Message {
	return types.Message{From: from, To: types.Addr{Node: 0, Service: "x"}, Type: "test.ack", Payload: payload}
}

func TestPendingHandle(t *testing.T) {
	h := newCallerHarness()
	p, other := NewPending(h.f), NewPending(h.f)
	var got any
	tok := p.New(time.Second, func(v any) { got = v }, func() { t.Error("resolved request timed out") })
	otherTok := other.New(time.Second, func(any) {}, nil)

	if p.Handle(reply(addrA, testReq{Token: tok})) {
		t.Fatal("a non-Reply payload was handled")
	}
	if p.Handle(reply(addrA, testAck{Token: otherTok})) {
		t.Fatal("another table's token was handled")
	}
	if !other.Handle(reply(addrA, testAck{Token: otherTok})) {
		t.Fatal("the passed-through reply did not resolve its own table")
	}
	if !p.Handle(reply(addrA, testAck{Token: tok})) {
		t.Fatal("an outstanding token was not handled")
	}
	if got != (testAck{Token: tok}) {
		t.Fatalf("callback got %v", got)
	}
	if p.Handle(reply(addrA, testAck{Token: tok})) {
		t.Fatal("a late duplicate was handled")
	}
	h.eng.RunFor(2 * time.Second)
}

func TestCallerHandle(t *testing.T) {
	h := newCallerHarness()
	bs := NewBreakers(BreakerConfig{Threshold: 3, Cooldown: time.Minute}, h.f.Now)
	c := NewCaller(h.f, Options{Budget: 3 * time.Second, Breakers: bs})
	other := NewPending(h.f)
	otherTok := other.New(time.Second, func(any) {}, nil)
	// B is two failures from opening: only a credit clears that streak.
	bs.Failure(Key(addrB))
	bs.Failure(Key(addrB))
	var got any
	tok := c.Go(Call{
		Targets: func() []types.Addr { return []types.Addr{addrA} },
		Send:    func(uint64, types.Addr) {},
		Done:    func(payload any, err error) { got = payload },
	})

	if c.Handle(reply(addrB, testReq{Token: tok})) {
		t.Fatal("a non-Reply payload was handled")
	}
	if c.Handle(reply(addrB, testAck{Token: otherTok})) || !other.Handle(reply(addrB, testAck{Token: otherTok})) {
		t.Fatal("another table's token was not passed through to its table")
	}
	// The answer comes from B (a late reply after a migration, say): B,
	// not the addressed A, is credited.
	if !c.Handle(reply(addrB, testAck{Token: tok})) {
		t.Fatal("an outstanding token was not handled")
	}
	if got != (testAck{Token: tok}) {
		t.Fatalf("Done got %v", got)
	}
	bs.Failure(Key(addrB))
	if bs.State(Key(addrB)) != StateClosed {
		t.Fatalf("B = %v, want closed: the responder's breaker must be credited", bs.State(Key(addrB)))
	}
	if c.Handle(reply(addrB, testAck{Token: tok})) {
		t.Fatal("a late duplicate was handled")
	}
}

func TestAskTypesTheReply(t *testing.T) {
	h := newCallerHarness()
	cl := NewClient(h.f, Budget(3*time.Second), func() (types.Addr, bool) { return addrA, true })
	var got testAck
	var gotErr error
	Ask(&cl, "test.req", func(token uint64) any { return testReq{Token: token} },
		func(a testAck, err error) { got, gotErr = a, err })
	sent := h.f.Sent[len(h.f.Sent)-1]
	req, ok := sent.Payload.(testReq)
	if !ok || sent.To != addrA || sent.Type != "test.req" {
		t.Fatalf("sent %+v, want a test.req to %v", sent, addrA)
	}
	if !cl.Handle(reply(addrA, testAck{Token: req.Token})) || gotErr != nil || got.Token != req.Token {
		t.Fatalf("got %+v, %v", got, gotErr)
	}

	// A reply of another type to the same token fails the call.
	gotErr = nil
	Ask(&cl, "test.req", func(token uint64) any { return testReq{Token: token} },
		func(a testAck, err error) { gotErr = err })
	req = h.f.Sent[len(h.f.Sent)-1].Payload.(testReq)
	if !cl.Handle(reply(addrA, otherAck{Token: req.Token})) || !errors.Is(gotErr, ErrBadReply) {
		t.Fatalf("err = %v, want ErrBadReply", gotErr)
	}

	// No target: the call fails at once.
	none := NewClient(h.f, Budget(time.Second), func() (types.Addr, bool) { return types.Addr{}, false })
	Ask(&none, "test.req", func(token uint64) any { return testReq{Token: token} },
		func(a testAck, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrNoTarget) {
		t.Fatalf("err = %v, want ErrNoTarget", gotErr)
	}
}
