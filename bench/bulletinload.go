package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/bulletin"
	"repro/internal/types"
)

type opKind int

const (
	opGet opKind = iota
	opQueryPartition
	opQueryCluster
	opPut
	opJobStat
)

var opNames = [...]string{"get", "query_partition", "query_cluster", "put", "jobstat"}

// op is one generated request; node is the key of a get or put, job the
// subject of a job-status poll.
type op struct {
	kind opKind
	node types.NodeID
	job  types.JobID
}

func (o op) isWrite() bool { return o.kind == opPut }

// outcome is one completed request: latency in microseconds from its
// start (closed loop) or due time (open loop).
type outcome struct {
	op  op
	us  float64
	ok  bool
	end time.Time // when the done callback ran
}

// syntheticBase is the first of the synthetic node keys: IDs no topology
// node has, so only the generator ever writes their rows.
const syntheticBase types.NodeID = 1000

// keyState tracks what the generator wrote under one synthetic key, so a
// read can be checked and its staleness measured. Loop-confined.
type keyState struct {
	issued    map[int64]bool // Collected (ns) of every write issued
	lastAcked int64          // newest Collected acked so far
}

// bulletinDriver issues bulletin requests through one client and checks
// every answer. start and the callbacks it installs run inside the client
// runtime's loop, which is what confines keys and the staleness samples.
type bulletinDriver struct {
	c      *realCluster
	client *bulletin.Client
	parts  int

	keys map[types.NodeID]*keyState

	wrong     atomic.Int64 // answers that arrived but were not correct
	firstBad  atomic.Value // string: the first incorrect answer, for the report
	staleUs   samples      // staleness of every stale synthetic read
	syntReads int
}

func newBulletinDriver(c *realCluster) *bulletinDriver {
	d := &bulletinDriver{c: c, client: c.newBulletinClient(), parts: len(c.topo.Partitions),
		keys: make(map[types.NodeID]*keyState)}
	c.rtc.Attach(func(msg types.Message) { d.client.Handle(msg) })
	return d
}

func (d *bulletinDriver) bad(what string) {
	if d.wrong.Add(1) == 1 {
		d.firstBad.Store(what)
	}
}

// start issues one request; done runs inside the loop when it completes.
// ok is false when the call failed; an answer that arrived but is wrong
// counts in d.wrong and still completes ok.
func (d *bulletinDriver) start(o op, done func(ok bool)) {
	switch o.kind {
	case opGet:
		ks := d.keys[o.node]
		var floor int64
		if ks != nil {
			floor = ks.lastAcked
		}
		d.client.Get(o.node, func(ack bulletin.GetAck, ok bool) {
			if ok {
				d.checkGet(o.node, ks, floor, ack)
			}
			done(ok)
		})
	case opQueryPartition, opQueryCluster:
		scope := bulletin.ScopePartition
		if o.kind == opQueryCluster {
			scope = bulletin.ScopeCluster
		}
		d.client.Query(scope, func(ack bulletin.QueryAck, ok bool) {
			if ok {
				d.checkQuery(o.kind, ack)
			}
			done(ok)
		})
	case opPut:
		ks := d.keys[o.node]
		if ks == nil {
			ks = &keyState{issued: make(map[int64]bool)}
			d.keys[o.node] = ks
		}
		// Every write carries a unique Collected: the wall clock, nudged
		// forward if two writes of one key share a nanosecond.
		at := time.Now()
		for ks.issued[at.UnixNano()] {
			at = at.Add(time.Nanosecond)
		}
		stamp := at.UnixNano()
		ks.issued[stamp] = true
		res := types.ResourceStats{Node: o.node, CPUPct: float64(stamp % 100), MemPct: 50, Collected: at}
		d.client.PutRes(res, func(ok bool) {
			if ok && stamp > ks.lastAcked {
				ks.lastAcked = stamp
			}
			done(ok)
		})
	}
}

func (d *bulletinDriver) checkGet(node types.NodeID, ks *keyState, floor int64, ack bulletin.GetAck) {
	if !ack.Found || ack.Res.Node != node {
		d.bad("get " + node.String() + ": row missing or of another node")
		return
	}
	if ks == nil {
		return // a real node's key: its detector keeps the row fresh
	}
	got := ack.Res.Collected.UnixNano()
	if !ks.issued[got] {
		d.bad("get " + node.String() + ": returned a row the generator never wrote")
		return
	}
	d.syntReads++
	if got < floor {
		d.staleUs = append(d.staleUs, float64(floor-got)/1e3)
	}
}

func (d *bulletinDriver) checkQuery(kind opKind, ack bulletin.QueryAck) {
	if kind == opQueryPartition {
		if len(ack.Snapshots) == 0 {
			d.bad("partition query returned no snapshot")
		}
		return
	}
	seen := make(map[types.PartitionID]bool)
	for _, s := range ack.Snapshots {
		seen[s.Partition] = true
	}
	if len(seen) != d.parts || len(ack.Missing) != 0 {
		d.bad("cluster query did not cover every partition")
	}
}

// do runs one request from outside the loop and waits for it.
func (d *bulletinDriver) do(o op) bool {
	ch := make(chan bool, 1)
	d.c.rtc.Do(func() { d.start(o, func(ok bool) { ch <- ok }) })
	select {
	case ok := <-ch:
		return ok
	case <-time.After(2 * d.c.params.RPCTimeout):
		return false
	}
}

// closedLoop keeps `outstanding` calls in flight for the window, split
// over at most two generator goroutines, and returns every completed call.
// next draws a generator's next request; with a tracer (one outstanding
// call only) every call is stamped.
func (d *bulletinDriver) closedLoop(window time.Duration, outstanding int, seed int64,
	next func(*rand.Rand) op, tr *tracer) []outcome {
	return closedLoop(d.c, window, outstanding, seed, next, d.start, tr)
}

// closedLoop is the closed loop of any driver: start issues one request
// inside the client runtime's loop and reports its completion there.
func closedLoop(c *realCluster, window time.Duration, outstanding int, seed int64,
	next func(*rand.Rand) op, start func(op, func(ok bool)), tr *tracer) []outcome {
	gens := 2
	if outstanding < gens {
		gens = outstanding
	}
	results := make(chan []outcome, gens)
	end := time.Now().Add(window)
	for g := 0; g < gens; g++ {
		slots := outstanding / gens
		if g < outstanding%gens {
			slots++
		}
		go func(g, slots int) {
			rng := rand.New(rand.NewSource(seed*131 + int64(g)))
			// Sized to the calls in flight, so a completion callback
			// never blocks the client loop.
			done := make(chan outcome, slots)
			issue := func() {
				o := next(rng)
				t0 := time.Now()
				if tr != nil {
					tr.begin(opNames[o.kind])
				}
				c.rtc.Do(func() {
					start(o, func(ok bool) {
						if tr != nil {
							tr.end()
						}
						end := time.Now()
						done <- outcome{op: o, us: float64(end.Sub(t0)) / 1e3, ok: ok, end: end}
					})
				})
			}
			var out []outcome
			inflight := 0
			for ; inflight < slots; inflight++ {
				issue()
			}
			for inflight > 0 {
				out = append(out, <-done)
				if time.Now().Before(end) {
					issue()
				} else {
					inflight--
				}
			}
			results <- out
		}(g, slots)
	}
	var all []outcome
	for g := 0; g < gens; g++ {
		all = append(all, <-results...)
	}
	return all
}

// openLoop issues the scheduled requests at their due times from one
// pacing goroutine and returns every outcome (latency from due time) and
// the generator's lateness. It waits for the calls still in flight; every
// call ends within its RPC budget by construction.
func (d *bulletinDriver) openLoop(start time.Time, due []time.Duration, ops []op) ([]outcome, samples) {
	done := make(chan outcome, len(due)) // one slot per request: callbacks never block the loop
	late := realPacer().run(start, due, func(i int, dueAt time.Time) {
		o := ops[i]
		d.c.rtc.Do(func() {
			d.start(o, func(ok bool) {
				end := time.Now()
				done <- outcome{op: o, us: float64(end.Sub(dueAt)) / 1e3, ok: ok, end: end}
			})
		})
	})
	out := make([]outcome, 0, len(due))
	for range due {
		out = append(out, <-done)
	}
	return out, late
}

// tally splits outcomes into latency populations of the successful calls
// and counts the failed ones.
func tally(out []outcome, keep func(op) bool) (lat samples, failed int) {
	for _, o := range out {
		if keep != nil && !keep(o.op) {
			continue
		}
		if !o.ok {
			failed++
			continue
		}
		lat = append(lat, o.us)
	}
	return lat, failed
}
