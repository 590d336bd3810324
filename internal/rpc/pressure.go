package rpc

import "sync"

// Gauge is a shared backpressure level in [0,1]-ish units (cluster
// utilisation may legitimately sit above 1 under a backlog). One writer —
// typically a scheduler that knows the cluster's utilisation — sets it;
// any caller wired to it through Options.Pressure sheds its sheddable
// calls while the level is at or above Options.ShedAt, failing them with
// ErrShed and counting them in rpc.shed: the trigger is the cluster's
// load, not the caller's own queue.
//
// Unlike the Caller it feeds, a Gauge is safe for concurrent use: the
// writer (a daemon loop) and the readers (other daemon loops on the same
// node) need not share a loop.
type Gauge struct {
	mu    sync.Mutex
	level float64
}

// NewGauge returns a gauge at level 0 (no pressure).
func NewGauge() *Gauge { return &Gauge{} }

// Set records the current pressure level.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.level = v
	g.mu.Unlock()
}

// Level reads the current pressure level; a nil gauge reads 0.
func (g *Gauge) Level() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.level
}
