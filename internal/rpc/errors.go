package rpc

import "errors"

// Typed call outcomes. Callers assert with errors.Is; the Done callback of
// a failed call receives exactly one of them.
//
// Retryable-error classification (see DESIGN §3d): an attempt timeout is
// retryable — the Caller re-resolves the target and tries again within the
// budget. A breaker denial is retryable after backoff (the cooldown may
// elapse, or the view may move the target). ErrShed and ErrNoTarget are
// permanent: shedding exists to cut load, and an empty target set means the
// client is unconfigured, not that the peer is slow. A reply whose payload
// carries an application-level error (ack.Err != "") is a delivered answer,
// never retried.
var (
	// ErrTimeout marks a call whose deadline budget (or attempt count)
	// was exhausted without a reply.
	ErrTimeout = errors.New("rpc: call timed out")

	// ErrShed marks a call rejected locally by load shedding, not a
	// network fault: a sheddable call found the shared pressure gauge at
	// or above the shed threshold (cluster-aware backpressure). Schedulers
	// reuse the same sentinel for admission refusals, so a client can
	// treat "the cluster is overloaded" uniformly with
	// errors.Is(err, ErrShed).
	ErrShed = errors.New("rpc: call shed (overload)")

	// ErrBreakerOpen marks a call that exhausted its budget with every
	// candidate target's circuit breaker open.
	ErrBreakerOpen = errors.New("rpc: all targets' breakers open")

	// ErrNoTarget marks a call whose target resolver produced no
	// candidates.
	ErrNoTarget = errors.New("rpc: no target")

	// ErrBadReply marks an Ask whose token was answered by a reply of
	// another type than the one asked for (a stray reply from a peer that
	// restarted its token counter, say).
	ErrBadReply = errors.New("rpc: reply of the wrong type")
)
