package wire

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// frameCounter counts how many times each data sequence number passes a
// filter, forwarding everything. Filters only ever see well-formed
// datagrams, so one that parseFrame rejects carries more than one frame:
// multi counts those, acks the single-frame datagrams without data.
type frameCounter struct {
	mu    sync.Mutex
	seen  map[uint32]int
	acks  int
	multi int
}

func newFrameCounter() *frameCounter { return &frameCounter{seen: make(map[uint32]int)} }

func (fc *frameCounter) note(data []byte) {
	f, err := parseFrame(data)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	switch {
	case err != nil:
		fc.multi++
	case f.isData():
		fc.seen[f.seq]++
	default:
		fc.acks++
	}
}

func (fc *frameCounter) counts() (seen map[uint32]int, acks, multi int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	seen = make(map[uint32]int, len(fc.seen))
	for k, v := range fc.seen {
		seen[k] = v
	}
	return seen, fc.acks, fc.multi
}

func ping(i int) types.Message {
	return types.Message{
		From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
		NIC: 0, Type: "ping", Payload: types.ResourceStats{Node: types.NodeID(i), CPUPct: 1},
	}
}

// TestFiltersSeeEveryFrameExactlyOnce pins the filters' positions in the
// stack: the outbound filter sits below reliability on the send side (each
// raw transmission passes once), the inbound filter above reliability on
// the receive side (each datagram passes once, before dedup). On a clean
// loopback lane with a generous RTO nothing retransmits, so every data
// frame crosses each filter exactly once and is delivered exactly once.
// It also pins the send-side contract the benchmark's stage stamping reads
// datagrams by: each one, data or standalone ack, carries a single frame.
func TestFiltersSeeEveryFrameExactlyOnce(t *testing.T) {
	out, in := newFrameCounter(), newFrameCounter()
	a, b := pair(t, 1,
		WithRetransmit(2*time.Second, 4), WithAckDelay(20*time.Millisecond),
		WithOutboundFilter(func(peer types.NodeID, plane int, data []byte, transmit func()) {
			out.note(data)
			transmit()
		}),
		WithInboundFilter(func(peer types.NodeID, plane int, data []byte, deliver func()) {
			in.note(data)
			deliver()
		}))
	got := make(chan types.Message, 16)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	const n = 8
	for i := 0; i < n; i++ {
		if err := a.Send(ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		await(t, got)
	}
	// Note: a and b share the filters (pair applies the same options to
	// both), but only a sends data, so the data counters describe the a→b
	// lane; b has no return traffic, so its acks come back standalone.
	waitNonzero(t, a, "wire.rx.acks")
	for name, fc := range map[string]*frameCounter{"outbound": out, "inbound": in} {
		counts, acks, multi := fc.counts()
		if multi != 0 {
			t.Errorf("%s filter saw %d datagrams carrying more than one frame", name, multi)
		}
		if acks == 0 {
			t.Errorf("%s filter saw no standalone ack", name)
		}
		if len(counts) != n {
			t.Errorf("%s filter saw %d distinct data frames, want %d", name, len(counts), n)
		}
		for seq, c := range counts {
			if c != 1 {
				t.Errorf("%s filter saw seq %d %d times, want exactly once", name, seq, c)
			}
		}
	}
	if v := b.Metrics().Counter("wire.rx.delivered").Value(); v != n {
		t.Errorf("delivered %v messages, want exactly %v", v, n)
	}
}

// TestInboundDropForcesRetransmit proves the inbound filter runs before
// the reliability layer: a datagram it drops is never acked, so the sender
// retransmits and the message still arrives.
func TestInboundDropForcesRetransmit(t *testing.T) {
	var mu sync.Mutex
	dropped := make(map[uint32]bool)
	a, b := pair(t, 1,
		WithRetransmit(20*time.Millisecond, 8), WithAckDelay(5*time.Millisecond),
		WithInboundFilter(func(peer types.NodeID, plane int, data []byte, deliver func()) {
			f, err := parseFrame(data)
			if err == nil && f.isData() {
				mu.Lock()
				first := !dropped[f.seq]
				dropped[f.seq] = true
				mu.Unlock()
				if first {
					return // eaten before the reliability layer saw it
				}
			}
			deliver()
		}))
	got := make(chan types.Message, 1)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	if err := a.Send(ping(0)); err != nil {
		t.Fatal(err)
	}
	await(t, got)
	if a.Metrics().Counter("wire.tx.retransmits").Value() == 0 {
		t.Error("inbound drop did not force a retransmission")
	}
}

// TestInboundDuplicateDeliveredOnce proves deliver may be called more than
// once and the duplicate dies in dup suppression, not in the handler.
func TestInboundDuplicateDeliveredOnce(t *testing.T) {
	a, b := pair(t, 1,
		WithRetransmit(2*time.Second, 4), WithAckDelay(20*time.Millisecond),
		WithInboundFilter(func(peer types.NodeID, plane int, data []byte, deliver func()) {
			deliver()
			deliver()
		}))
	got := make(chan types.Message, 16)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	const n = 4
	for i := 0; i < n; i++ {
		if err := a.Send(ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		await(t, got)
	}
	time.Sleep(50 * time.Millisecond) // let trailing duplicates drain
	if v := b.Metrics().Counter("wire.rx.delivered").Value(); v != n {
		t.Errorf("delivered %v messages, want exactly %v", v, n)
	}
	if v := b.Metrics().Counter("wire.rx.dup_drops").Value(); v == 0 {
		t.Error("duplicated deliveries were not dup-dropped")
	}
}

// TestLaneHealthFailover drives the graceful-degradation path end to end:
// plane 0 to the peer dies (all its datagrams eaten), the lane faults and
// is marked down, AnyNIC traffic fails over to plane 1, and once plane 0
// heals an explicit-NIC send marks the lane healthy again.
func TestLaneHealthFailover(t *testing.T) {
	var plane0Dead atomic.Bool
	faults := make(chan int, 16)
	a, b := pair(t, 2,
		WithRetransmit(10*time.Millisecond, 3), WithAckDelay(2*time.Millisecond),
		WithOutboundFilter(func(peer types.NodeID, plane int, data []byte, transmit func()) {
			if plane == 0 && plane0Dead.Load() {
				return
			}
			transmit()
		}),
		WithPeerFaultHandler(func(peer types.NodeID, plane int, err error) {
			select {
			case faults <- plane:
			default:
			}
		}))
	got := make(chan types.Message, 16)
	b.Register(recvAddr(), func(m types.Message) { got <- m })
	b.Register(types.Addr{Node: 1, Service: "svc2"}, func(m types.Message) { got <- m })

	plane0Dead.Store(true)
	if err := a.Send(ping(0)); err != nil { // explicit NIC 0 — will fault
		t.Fatal(err)
	}
	select {
	case p := <-faults:
		if p != 0 {
			t.Fatalf("fault on plane %d, want 0", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dead plane 0 never faulted")
	}
	if !a.laneDown(peerKey{1, 0}) {
		t.Fatal("faulted lane not marked down")
	}
	st := a.Stats()
	if st.LanesDown != 1 || st.Planes[0].Healthy || !st.Planes[1].Healthy {
		t.Fatalf("plane health after fault: %+v", st.Planes)
	}

	// AnyNIC now routes around the dead plane.
	msg := ping(1)
	msg.NIC = types.AnyNIC
	msg.To = types.Addr{Node: 1, Service: "svc2"}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	m := await(t, got)
	if m.NIC != 1 {
		t.Fatalf("failover send arrived on plane %d, want 1", m.NIC)
	}
	if a.Stats().Failovers == 0 {
		t.Error("failover not counted")
	}

	// Heal plane 0: the next explicit-NIC send gets acked and the lane
	// recovers — the watch daemons' per-NIC heartbeats in a real cluster.
	plane0Dead.Store(false)
	if err := a.Send(ping(2)); err != nil {
		t.Fatal(err)
	}
	await(t, got)
	deadline := time.Now().Add(5 * time.Second)
	for a.laneDown(peerKey{1, 0}) {
		if time.Now().After(deadline) {
			t.Fatal("healed lane never marked up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := a.Stats(); !st.Planes[0].Healthy {
		t.Fatalf("plane 0 still unhealthy after heal: %+v", st.Planes)
	}
}

// TestProbeChainHealsIdleLane pins the ping chain: a lane marked down and
// then left without any application traffic (AnyNIC sends route around it,
// explicit sends stop) must still recover once the plane heals, because
// the transport pings the down lane on a backoff and the peer's pong marks
// it up.
func TestProbeChainHealsIdleLane(t *testing.T) {
	var plane0Dead atomic.Bool
	a, b := pair(t, 2,
		WithRetransmit(10*time.Millisecond, 3), WithAckDelay(2*time.Millisecond),
		WithOutboundFilter(func(peer types.NodeID, plane int, data []byte, transmit func()) {
			if plane == 0 && plane0Dead.Load() {
				return
			}
			transmit()
		}))
	got := make(chan types.Message, 16)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	plane0Dead.Store(true)
	if err := a.Send(ping(0)); err != nil { // explicit NIC 0 — will fault
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !a.laneDown(peerKey{1, 0}) {
		if time.Now().After(deadline) {
			t.Fatal("dead plane 0 never marked down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Heal the plane and send nothing: only the probe chain runs now.
	plane0Dead.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	for a.laneDown(peerKey{1, 0}) {
		if time.Now().After(deadline) {
			t.Fatal("idle healed lane never marked up by the probe chain")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if a.Metrics().Counter("wire.tx.pings").Value() == 0 {
		t.Error("no pings sent on the down lane")
	}
	if a.Metrics().Counter("wire.rx.pongs").Value() == 0 {
		t.Error("no pong came back on the healed lane")
	}
	if st := a.Stats(); !st.Planes[0].Healthy {
		t.Fatalf("plane 0 still unhealthy after idle heal: %+v", st.Planes)
	}
}

// TestPickPlaneProbeBackoff pins the all-lanes-down policy: AnyNIC sends
// probe a down lane only once its backoff elapsed, and fall back to the
// first routable plane when every lane is down and inside backoff.
func TestPickPlaneProbeBackoff(t *testing.T) {
	a, _ := pair(t, 2)
	book := a.Book()
	now := a.clk.Now()

	a.healthMu.Lock()
	a.health[peerKey{1, 0}] = &laneHealth{down: true, faults: 1, retryAt: now.Add(time.Hour)}
	a.health[peerKey{1, 1}] = &laneHealth{down: true, faults: 1, retryAt: now.Add(-time.Second)}
	a.healthMu.Unlock()
	if p := a.pickPlane(book, 1); p != 1 {
		t.Fatalf("pickPlane = %d, want probe of backoff-elapsed plane 1", p)
	}
	// The probe pushed plane 1's retryAt forward; with both lanes inside
	// backoff the send falls back to the first routable plane.
	if p := a.pickPlane(book, 1); p != 0 {
		t.Fatalf("pickPlane = %d, want fallback to first routable plane 0", p)
	}
	// A healthy lane always wins over a probe-eligible down lane.
	a.healthMu.Lock()
	a.health[peerKey{1, 0}] = &laneHealth{down: true, faults: 1, retryAt: now.Add(-time.Second)}
	a.health[peerKey{1, 1}] = &laneHealth{}
	a.healthMu.Unlock()
	if p := a.pickPlane(book, 1); p != 1 {
		t.Fatalf("pickPlane = %d, want healthy plane 1 over probe-eligible plane 0", p)
	}
}
