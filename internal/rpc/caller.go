package rpc

import (
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/types"
)

// Options configures a resilient client: the deadline budget its calls
// default to, the retry policy, the breaker set and metrics registry it
// shares with the rest of the node, extra failover peers, and the
// backpressure gauge its sheddable calls obey. The zero value is usable:
// DefaultBudget, default policy, a private breaker set, no metrics, no
// shedding.
type Options struct {
	// Budget is the default total deadline per call (0 = DefaultBudget).
	// This is the role Params.RPCTimeout plays now: the whole call's
	// budget, out of which retries are carved — not a per-attempt timer.
	Budget time.Duration
	// Policy overrides the default retry policy derived from Budget.
	Policy *Policy
	// Breakers is the shared breaker set; nil allocates a private one
	// (still functional, but blind to wire peer faults).
	Breakers *Breakers
	// Metrics receives rpc.calls / rpc.retries / rpc.shed / rpc.ok /
	// rpc.failures counters when non-nil.
	Metrics *metrics.Registry
	// Peers supplies extra failover targets appended to every call's own
	// target list — typically a federation.View's PeerAddrs, so retries
	// can land on a surviving peer of the complete graph.
	Peers func() []types.Addr
	// Spread rotates the Peers-supplied tail of each call's target list
	// by one position per call, so reads fan out across a replica set
	// instead of always hammering the first peer. A call's own explicit
	// Targets stay first and unrotated — writes pinned to a primary are
	// unaffected.
	Spread bool
	// Pressure, with ShedAt, sheds load: a Call marked Sheddable fails
	// immediately with ErrShed while Pressure.Level() >= ShedAt. Calls
	// not marked Sheddable ignore the gauge entirely, so kills,
	// checkpoints and service-path traffic are never refused by
	// backpressure.
	Pressure *Gauge
	// ShedAt is the gauge level at which sheddable calls are refused.
	// Zero disables gauge-driven shedding even with a gauge wired.
	ShedAt float64
}

// Budget is shorthand for Options with only a deadline budget set.
func Budget(d time.Duration) Options { return Options{Budget: d} }

// WithBudget returns a copy of the options with the budget replaced —
// for handing one node-wide Options (breakers, metrics) to clients with
// different deadlines.
func (o Options) WithBudget(d time.Duration) Options {
	o.Budget = d
	return o
}

// WithPeers returns a copy of the options with the failover-peer resolver
// replaced.
func (o Options) WithPeers(peers func() []types.Addr) Options {
	o.Peers = peers
	return o
}

// Key derives the breaker key of a kernel address.
func Key(a types.Addr) BreakerKey { return BreakerKey{Node: a.Node, Service: a.Service} }

// Call is one resilient request.
type Call struct {
	// Targets resolves the candidate servers, best first. It runs again
	// on every attempt, so a retry observes federation view pushes (a
	// GSD migration moving the access point) instead of re-dialing the
	// address that just timed out.
	Targets func() []types.Addr
	// Send transmits one attempt to the chosen target. Every attempt
	// reuses the call's single token, which is what lets the server
	// deduplicate retried non-idempotent requests and lets any
	// attempt's reply resolve the call.
	Send func(token uint64, to types.Addr)
	// Done receives the outcome: (payload, nil) on the first reply, or
	// (nil, err) with one of this package's sentinels. Optional.
	Done func(payload any, err error)
	// Policy overrides the caller's policy for this call.
	Policy *Policy
	// Sheddable marks the call safe to refuse under backpressure: a
	// periodic audit or other best-effort traffic that a later period
	// reissues anyway. Sheddable calls fail fast with ErrShed while the
	// caller's pressure gauge sits at or above Options.ShedAt.
	Sheddable bool
}

// callState tracks one in-flight resilient call.
type callState struct {
	call       Call
	policy     Policy
	deadline   time.Time
	attempts   int
	last       types.Addr // target of the newest attempt
	multi      bool       // attempts went to more than one distinct target
	sent       bool       // at least one attempt went out
	timer      clock.Timer
	rot        int                 // Spread rotation offset into the peer tail
	rejected   map[types.Addr]bool // targets that answered with a refusal (Reject)
	lastFailed bool                // newest attempt timed out (prefer another target next)
}

// Caller runs resilient calls for one daemon. Like Pending it is
// loop-confined — all methods must run on the owning daemon's loop (or
// the wire runtime's Do) — only the breaker set it feeds is shared.
type Caller struct {
	rt       rt.Runtime
	opts     Options
	breakers *Breakers
	calls    map[uint64]*callState
	spreadRR int // next Spread rotation offset

	calls_  *metrics.Counter
	retries *metrics.Counter
	shed    *metrics.Counter
	ok      *metrics.Counter
	failed  *metrics.Counter
}

// NewCaller builds a resilient caller bound to a runtime.
func NewCaller(r rt.Runtime, opts Options) *Caller {
	if opts.Budget <= 0 {
		opts.Budget = DefaultBudget
	}
	bs := opts.Breakers
	if bs == nil {
		bs = NewBreakers(BreakerConfig{}, r.Now)
	}
	c := &Caller{rt: r, opts: opts, breakers: bs, calls: make(map[uint64]*callState)}
	if m := opts.Metrics; m != nil {
		c.calls_ = m.Counter("rpc.calls")
		c.retries = m.Counter("rpc.retries")
		c.shed = m.Counter("rpc.shed")
		c.ok = m.Counter("rpc.ok")
		c.failed = m.Counter("rpc.failures")
	}
	return c
}

// Breakers exposes the breaker set the caller feeds.
func (c *Caller) Breakers() *Breakers { return c.breakers }

// Outstanding reports how many calls are in flight.
func (c *Caller) Outstanding() int { return len(c.calls) }

func inc(ctr *metrics.Counter) {
	if ctr != nil {
		ctr.Inc()
	}
}

// Go starts a resilient call and returns its token (0 if shed — real
// tokens start at 1). Done runs exactly once unless Cancel intervenes;
// it may run synchronously (shedding, no targets).
func (c *Caller) Go(call Call) uint64 {
	if call.Sheddable && c.opts.ShedAt > 0 && c.opts.Pressure.Level() >= c.opts.ShedAt {
		inc(c.shed)
		if call.Done != nil {
			call.Done(nil, ErrShed)
		}
		return 0
	}
	pol := c.opts.Policy
	if call.Policy != nil {
		pol = call.Policy
	}
	var p Policy
	if pol != nil {
		p = pol.withDefaults(c.opts.Budget)
	} else {
		p = DefaultPolicy(c.opts.Budget)
	}
	token := tokenCounter.Add(1)
	st := &callState{call: call, policy: p, deadline: c.rt.Now().Add(p.Budget)}
	if c.opts.Spread {
		st.rot = c.spreadRR
		c.spreadRR++
	}
	c.calls[token] = st
	inc(c.calls_)
	c.attempt(token, st)
	return token
}

// targets merges the call's own candidates with the caller-wide failover
// peers, dropping duplicates while keeping order (call targets first).
func (c *Caller) targets(st *callState) []types.Addr {
	var out []types.Addr
	if st.call.Targets != nil {
		out = st.call.Targets()
	}
	if c.opts.Peers != nil {
		var peers []types.Addr
		for _, p := range c.opts.Peers() {
			dup := false
			for _, t := range out {
				if t == p {
					dup = true
					break
				}
			}
			for _, t := range peers {
				if t == p {
					dup = true
					break
				}
			}
			if !dup {
				peers = append(peers, p)
			}
		}
		if c.opts.Spread && len(peers) > 1 {
			r := st.rot % len(peers)
			rotated := make([]types.Addr, 0, len(peers))
			rotated = append(rotated, peers[r:]...)
			rotated = append(rotated, peers[:r]...)
			peers = rotated
		}
		out = append(out, peers...)
	}
	return out
}

// pick chooses the first target whose breaker allows traffic, skipping
// targets that refused this call (Reject). When every allowed target has
// refused, the rejected set is cleared and the cycle restarts — by then
// the situation that caused the refusals (a stale shard map, say) has had
// a chance to change.
// When the newest attempt timed out, its target is deprioritised — the
// retry fails over to the next candidate immediately instead of waiting
// for the dead peer's breaker to open.
func (c *Caller) pick(st *callState, targets []types.Addr) (types.Addr, bool) {
	var demoted types.Addr
	haveDemoted := false
	for _, t := range targets {
		if st.rejected[t] {
			continue
		}
		if !c.breakers.Allow(Key(t)) {
			continue
		}
		if st.lastFailed && t == st.last {
			demoted, haveDemoted = t, true
			continue
		}
		return t, true
	}
	if haveDemoted {
		return demoted, true
	}
	if len(st.rejected) > 0 {
		st.rejected = nil
		for _, t := range targets {
			if c.breakers.Allow(Key(t)) {
				return t, true
			}
		}
	}
	return types.Addr{}, false
}

// attempt runs one attempt of the call identified by token: re-resolve
// targets, skip open breakers, send, arm the attempt timer.
func (c *Caller) attempt(token uint64, st *callState) {
	remaining := st.deadline.Sub(c.rt.Now())
	if remaining <= 0 {
		c.finish(token, st, ErrTimeout)
		return
	}
	targets := c.targets(st)
	if len(targets) == 0 {
		c.finish(token, st, ErrNoTarget)
		return
	}
	to, found := c.pick(st, targets)
	if !found {
		// Every candidate's breaker is open. Wait (a cooldown may
		// elapse, a view push may bring a new target) without
		// consuming an attempt; only the budget bounds this.
		d := st.policy.backoff(st.attempts+1, c.rt.Rand())
		if d <= 0 {
			d = time.Millisecond // never spin at one instant
		}
		if d >= remaining {
			c.finish(token, st, ErrBreakerOpen)
			return
		}
		st.timer = c.rt.After(d, func() { c.reattempt(token) })
		return
	}
	st.attempts++
	if st.attempts > 1 {
		inc(c.retries)
	}
	if st.sent && st.last != to {
		st.multi = true
	}
	st.last = to
	st.sent = true
	st.lastFailed = false
	st.call.Send(token, to)
	wait := st.policy.attemptTimeout()
	if wait > remaining {
		wait = remaining
	}
	st.timer = c.rt.After(wait, func() { c.attemptTimedOut(token) })
}

// reattempt re-enters attempt for a still-live call (backoff timer fired).
func (c *Caller) reattempt(token uint64) {
	st, live := c.calls[token]
	if !live {
		return
	}
	c.attempt(token, st)
}

// attemptTimedOut handles one attempt's reply deadline expiring: charge
// the breaker, then retry after backoff or fail the call.
func (c *Caller) attemptTimedOut(token uint64) {
	st, live := c.calls[token]
	if !live {
		return
	}
	c.breakers.Failure(Key(st.last))
	st.lastFailed = true
	remaining := st.deadline.Sub(c.rt.Now())
	if st.attempts >= st.policy.MaxAttempts || remaining <= 0 {
		c.finish(token, st, ErrTimeout)
		return
	}
	d := st.policy.backoff(st.attempts, c.rt.Rand())
	if d >= remaining {
		c.finish(token, st, ErrTimeout)
		return
	}
	if d <= 0 {
		c.reattempt(token)
		return
	}
	st.timer = c.rt.After(d, func() { c.reattempt(token) })
}

// finish fails the call.
func (c *Caller) finish(token uint64, st *callState, err error) {
	delete(c.calls, token)
	if st.timer != nil {
		st.timer.Stop()
	}
	inc(c.failed)
	if st.call.Done != nil {
		st.call.Done(nil, err)
	}
}

// Resolve completes the call whose token matches with a reply payload,
// reporting whether the token was outstanding (duplicate replies from
// earlier attempts return false and are dropped). Without the responder's
// identity the breaker credit is conservative: every attempt shares one
// token, so when attempts went to more than one target the reply could be
// a late answer from any of them and no breaker is credited. Prefer
// ResolveFrom when the reply's source address is known.
func (c *Caller) Resolve(token uint64, payload any) bool {
	return c.resolve(token, types.Addr{}, payload)
}

// ResolveFrom is Resolve with the responder's address (the reply
// message's From): the peer that actually answered gets the breaker
// credit, even when the reply is a late answer from an earlier attempt
// against a different target than the newest one.
func (c *Caller) ResolveFrom(token uint64, from types.Addr, payload any) bool {
	return c.resolve(token, from, payload)
}

// Handle resolves the call msg answers, crediting the responder's
// breaker: it is ResolveFrom for any Reply payload. It reports false for
// late and duplicate replies, other tables' tokens and non-replies, which
// the daemon's own dispatch then sees (and must ignore).
func (c *Caller) Handle(msg types.Message) bool {
	r, ok := msg.Payload.(Reply)
	return ok && c.resolve(r.ReplyToken(), msg.From, msg.Payload)
}

func (c *Caller) resolve(token uint64, from types.Addr, payload any) bool {
	st, live := c.calls[token]
	if !live {
		return false
	}
	delete(c.calls, token)
	if st.timer != nil {
		st.timer.Stop()
	}
	switch {
	case from != (types.Addr{}):
		c.breakers.Success(Key(from))
	case st.sent && !st.multi:
		// Every attempt hit the same target, so the reply must be its.
		c.breakers.Success(Key(st.last))
	}
	inc(c.ok)
	if st.call.Done != nil {
		st.call.Done(payload, nil)
	}
	return true
}

// Reject records an application-level refusal of the call's request by a
// peer that is alive but cannot serve it — a bulletin instance answering
// "wrong shard" for a key it no longer owns. The responder's breaker is
// credited (it did answer), the target is set aside for this call, and the
// next attempt is scheduled after backoff with targets re-resolved — by
// which time an adopted shard map or federation push may name a different
// owner. The call is not resolved and Done does not run; it reports
// whether the token was live.
func (c *Caller) Reject(token uint64, from types.Addr) bool {
	st, live := c.calls[token]
	if !live {
		return false
	}
	if from != (types.Addr{}) {
		c.breakers.Success(Key(from))
		if st.rejected == nil {
			st.rejected = make(map[types.Addr]bool)
		}
		st.rejected[from] = true
	}
	if st.timer != nil {
		st.timer.Stop()
	}
	remaining := st.deadline.Sub(c.rt.Now())
	if st.attempts >= st.policy.MaxAttempts || remaining <= 0 {
		c.finish(token, st, ErrTimeout)
		return true
	}
	d := st.policy.backoff(st.attempts, c.rt.Rand())
	if d >= remaining {
		c.finish(token, st, ErrTimeout)
		return true
	}
	if d <= 0 {
		c.reattempt(token)
		return true
	}
	st.timer = c.rt.After(d, func() { c.reattempt(token) })
	return true
}

// Cancel abandons a call without running Done.
func (c *Caller) Cancel(token uint64) {
	st, live := c.calls[token]
	if !live {
		return
	}
	delete(c.calls, token)
	if st.timer != nil {
		st.timer.Stop()
	}
}

// CallStats is the RPC section of a node's status snapshot.
type CallStats struct {
	Calls    int `json:"calls"`
	Retries  int `json:"retries"`
	Shed     int `json:"shed"`
	OK       int `json:"ok"`
	Failures int `json:"failures"`
}

// ReadStats reads the rpc.* counters out of a registry.
func ReadStats(reg *metrics.Registry) CallStats {
	if reg == nil {
		return CallStats{}
	}
	return CallStats{
		Calls:    int(reg.Counter("rpc.calls").Value()),
		Retries:  int(reg.Counter("rpc.retries").Value()),
		Shed:     int(reg.Counter("rpc.shed").Value()),
		OK:       int(reg.Counter("rpc.ok").Value()),
		Failures: int(reg.Counter("rpc.failures").Value()),
	}
}
