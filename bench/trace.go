package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// frameHeader is the wire frame header size: a datagram no longer than
// this is a standalone ack or probe and belongs to no call.
const frameHeader = 32

// stageNames are the five spans every traced call is cut into; together
// they tile [t0, t5] exactly. The serve span is reported under the
// serving package's name (bulletin or pws) by the workload.
var stageNames = [5]string{"rpc.send_path", "wire.loopback_fwd", "serve_path", "wire.loopback_rev", "rpc.recv_path"}

// callTrace is one call's six boundary stamps: t0 the generator hands the
// call to the client loop, t1 its datagram reaches the client's outbound
// filter, t2 the server's inbound filter, t3 the reply reaches the
// server's outbound filter, t4 the client's inbound filter, t5 the done
// callback runs.
type callTrace struct {
	ID     int
	Op     string
	Server types.NodeID
	T      [6]time.Time
}

// spans returns the five stage durations in microseconds and whether every
// boundary was stamped in order.
func (c callTrace) spans() (out [5]float64, ok bool) {
	for i := 0; i < 5; i++ {
		if c.T[i].IsZero() || c.T[i+1].Before(c.T[i]) {
			return out, false
		}
		out[i] = float64(c.T[i+1].Sub(c.T[i])) / float64(time.Microsecond)
	}
	return out, !c.T[5].IsZero()
}

// tracer stamps datagrams from outside the product, through the public
// wire filter options on transports the harness constructs. It relies on
// the generator keeping exactly one call outstanding: the first
// data-bearing datagram on the client→server lane after t0, and on the
// server→client lane after t2, belong to that call.
type tracer struct {
	mu    sync.Mutex
	cur   *callTrace
	calls []callTrace
	next  int
}

func (t *tracer) options(node, client types.NodeID) []wire.Option {
	if node == client {
		return []wire.Option{
			wire.WithOutboundFilter(func(peer types.NodeID, _ int, data []byte, transmit func()) {
				t.stamp(1, peer, len(data))
				transmit()
			}),
			wire.WithInboundFilter(func(peer types.NodeID, _ int, data []byte, deliver func()) {
				t.stamp(4, peer, len(data))
				deliver()
			}),
		}
	}
	return []wire.Option{
		wire.WithOutboundFilter(func(peer types.NodeID, _ int, data []byte, transmit func()) {
			if peer == client {
				t.stamp(3, node, len(data))
			}
			transmit()
		}),
		wire.WithInboundFilter(func(peer types.NodeID, _ int, data []byte, deliver func()) {
			if peer == client {
				t.stamp(2, node, len(data))
			}
			deliver()
		}),
	}
}

// stamp records boundary i for the outstanding call if it is the next
// boundary due; server is the cluster-side node of the lane.
func (t *tracer) stamp(i int, server types.NodeID, size int) {
	if size <= frameHeader {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cur
	if c == nil || !c.T[i].IsZero() || c.T[i-1].IsZero() {
		return
	}
	if i == 1 {
		c.Server = server
	} else if server != c.Server {
		return
	}
	c.T[i] = now
}

// begin opens the trace of the one outstanding call (t0).
func (t *tracer) begin(op string) {
	t.mu.Lock()
	t.open(op)
	t.mu.Unlock()
}

// tryBegin is begin for generators that may overlap calls (an open loop):
// it declines while another call's trace is open.
func (t *tracer) tryBegin(op string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur != nil {
		return false
	}
	t.open(op)
	return true
}

func (t *tracer) open(op string) {
	t.next++
	t.cur = &callTrace{ID: t.next, Op: op}
	t.cur.T[0] = time.Now()
}

// end closes it (t5) and keeps it.
func (t *tracer) end() {
	now := time.Now()
	t.mu.Lock()
	if c := t.cur; c != nil {
		c.T[5] = now
		t.calls = append(t.calls, *c)
		t.cur = nil
	}
	t.mu.Unlock()
}

// stageBudget is the traced loop's summary: the five stages of the typical
// call, the traced end-to-end median and how far the stages are from
// adding up to it.
type stageBudget struct {
	Stage      [5]float64
	E2E        float64
	ErrorPct   float64
	Calls      int
	Incomplete int
}

// budget decomposes the median call. The median of each stage taken alone
// would not do: the mix holds calls of different shapes, and medians of
// parts do not add up to the median of the whole (they came out 11-14 %
// short). Each stage is instead its mean over the typical calls, the tenth
// whose end-to-end time lies between the 45th and 55th percentile; every
// call's spans tile it exactly, so the stages add up to the band's mean,
// which is the median but for the band's width.
func (t *tracer) budget() stageBudget {
	t.mu.Lock()
	calls := append([]callTrace(nil), t.calls...)
	t.mu.Unlock()
	var b stageBudget
	type traced struct {
		e2e   float64
		spans [5]float64
	}
	var done []traced
	for _, c := range calls {
		sp, ok := c.spans()
		if !ok {
			b.Incomplete++
			continue
		}
		done = append(done, traced{float64(c.T[5].Sub(c.T[0])) / float64(time.Microsecond), sp})
	}
	b.Calls = len(done)
	if b.Calls == 0 {
		return b
	}
	sort.Slice(done, func(i, j int) bool { return done[i].e2e < done[j].e2e })
	b.E2E = done[(len(done)-1)/2].e2e
	lo, hi := len(done)*45/100, len(done)*55/100+1
	if hi > len(done) {
		hi = len(done)
	}
	sum := 0.0
	for _, d := range done[lo:hi] {
		for i, v := range d.spans {
			b.Stage[i] += v / float64(hi-lo)
		}
	}
	for _, v := range b.Stage {
		sum += v
	}
	b.ErrorPct = 100 * abs(sum-b.E2E) / b.E2E
	return b
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// traceFile is the on-disk form: every call carries its id and six
// boundary stamps in nanoseconds since the first call; span i of a call is
// [t_ns[i], t_ns[i+1]] and is named spans[i]. All spans of a call share
// its id; each span's parent is the call.
type traceFile struct {
	Workload string      `json:"workload"`
	Spans    [5]string   `json:"spans"`
	Calls    []traceCall `json:"calls"`
}

type traceCall struct {
	ID     int      `json:"id"`
	Op     string   `json:"op"`
	Server int      `json:"server"`
	TNs    [6]int64 `json:"t_ns"`
}

func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	calls := append([]callTrace(nil), t.calls...)
	t.mu.Unlock()
	out := traceFile{Workload: workload, Spans: stageNames}
	for _, c := range calls {
		if _, ok := c.spans(); !ok {
			continue
		}
		tc := traceCall{ID: c.ID, Op: c.Op, Server: int(c.Server)}
		for i, ts := range c.T {
			tc.TNs[i] = ts.Sub(calls[0].T[0]).Nanoseconds()
		}
		out.Calls = append(out.Calls, tc)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
