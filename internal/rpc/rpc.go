// Package rpc layers request/reply correlation over the kernel's datagram
// messaging. Every request carries a token and every reply echoes it
// (Reply); a daemon's Receive hands each message to its tables' Handle,
// and the table that issued the token resolves it. Two tables exist: a
// Caller runs resilient calls (retries, breakers, shedding) and is what
// Client and Ask are built on; a Pending runs one-shot requests whose
// timeout is itself the answer, which is how probers implement the
// paper's node-fault diagnosis.
package rpc

import (
	"sync/atomic"
	"time"

	"repro/internal/rt"
	"repro/internal/types"
)

// tokenCounter is process-global so tokens are unique across every Pending
// table and Caller: a daemon owning several (the GSD runs a spawn table,
// two heartbeat monitors, a reintegration prober and a checkpoint client)
// offers each reply to them in turn, and only the issuer knows its token.
var tokenCounter atomic.Uint64

// Reply is a payload that answers a request: it echoes the request's
// token. Every ack type a Caller or Pending resolves implements it.
type Reply interface{ ReplyToken() uint64 }

// Pending correlates outstanding requests with their replies.
type Pending struct {
	rt rt.Runtime
	m  map[uint64]*entry
}

type entry struct {
	onReply   func(payload any)
	onTimeout func()
	timer     interface{ Stop() bool }
}

// NewPending builds a table bound to a runtime (for its timers).
func NewPending(r rt.Runtime) *Pending {
	return &Pending{rt: r, m: make(map[uint64]*entry)}
}

// New allocates a token, arming a timeout. Exactly one of onReply and
// onTimeout will run (unless Cancel intervenes). A zero timeout means no
// timeout is armed.
func (p *Pending) New(timeout time.Duration, onReply func(payload any), onTimeout func()) uint64 {
	token := tokenCounter.Add(1)
	e := &entry{onReply: onReply, onTimeout: onTimeout}
	if timeout > 0 {
		e.timer = p.rt.After(timeout, func() {
			if _, live := p.m[token]; !live {
				return
			}
			delete(p.m, token)
			if onTimeout != nil {
				onTimeout()
			}
		})
	}
	p.m[token] = e
	return token
}

// Resolve completes the request identified by token with the given reply
// payload. It reports whether the token was outstanding.
func (p *Pending) Resolve(token uint64, payload any) bool {
	e, ok := p.m[token]
	if !ok {
		return false
	}
	delete(p.m, token)
	if e.timer != nil {
		e.timer.Stop()
	}
	if e.onReply != nil {
		e.onReply(payload)
	}
	return true
}

// Handle resolves the request msg answers, reporting whether msg was a
// Reply to one of this table's outstanding tokens. Late and duplicate
// replies, other tables' tokens and non-replies return false.
func (p *Pending) Handle(msg types.Message) bool {
	r, ok := msg.Payload.(Reply)
	return ok && p.Resolve(r.ReplyToken(), msg.Payload)
}

// Cancel abandons an outstanding request without running either callback.
func (p *Pending) Cancel(token uint64) {
	e, ok := p.m[token]
	if !ok {
		return
	}
	delete(p.m, token)
	if e.timer != nil {
		e.timer.Stop()
	}
}

// Outstanding reports how many requests are awaiting replies.
func (p *Pending) Outstanding() int { return len(p.m) }
