package wire

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
)

// TestMultiFrameDatagram pins the v3 datagram contract: parseFrameAt
// walks concatenated frames, parseFrame stays strictly single-frame, and
// one malformed frame poisons the whole datagram.
func TestMultiFrameDatagram(t *testing.T) {
	f1 := frame{plane: 0, flags: flagData, src: 1, seq: 5, fragCount: 1, payload: []byte("first")}
	f2 := frame{plane: 0, flags: flagAck, src: 1, ack: 9, ackBits: 0x3}
	dgram := appendFrame(encodeFrame(f1), f2)

	g1, next, err := parseFrameAt(dgram, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(g1.payload) != "first" || g1.seq != 5 {
		t.Fatalf("first frame mangled: %+v", g1)
	}
	g2, next2, err := parseFrameAt(dgram, next)
	if err != nil {
		t.Fatal(err)
	}
	if next2 != len(dgram) || !g2.hasAck() || g2.ack != 9 {
		t.Fatalf("second frame mangled: %+v (next %d of %d)", g2, next2, len(dgram))
	}

	if _, err := parseFrame(dgram); err == nil {
		t.Fatal("parseFrame accepted a multi-frame datagram")
	}
	// Truncating the second frame's header must fail the walk.
	if _, _, err := parseFrameAt(dgram[:next+3], next); err == nil {
		t.Fatal("truncated second frame accepted")
	}
}

// TestBatchWindowCoalesces sends a burst through a batched lane and
// checks the frames left in fewer datagrams than messages, while every
// message still arrives.
func TestBatchWindowCoalesces(t *testing.T) {
	a, b := pair(t, 1, WithBatchWindow(5*time.Millisecond))
	got := make(chan types.Message, 64)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	const n = 32
	for i := 0; i < n; i++ {
		err := a.Send(types.Message{
			From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
			NIC: 0, Type: "burst",
			Payload: types.ResourceStats{Node: types.NodeID(i), CPUPct: float64(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[types.NodeID]bool)
	for i := 0; i < n; i++ {
		m := await(t, got)
		rs, ok := m.Payload.(types.ResourceStats)
		if !ok {
			t.Fatalf("payload: %#v", m.Payload)
		}
		seen[rs.Node] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct messages, want %d", len(seen), n)
	}
	if v := a.Metrics().Counter("wire.tx.batched_frames").Value(); v == 0 {
		t.Error("no frames were batched")
	}
	dgrams := a.Metrics().Counter("wire.tx.datagrams").Value()
	if dgrams >= n {
		t.Errorf("burst of %d messages used %v datagrams; batching had no effect", n, dgrams)
	}
}

// TestBatchedBidirectionalTraffic runs request/response pairs over
// batched lanes in both directions — the path where acks ride open
// batches — and checks nothing is lost or mangled.
func TestBatchedBidirectionalTraffic(t *testing.T) {
	a, b := pair(t, 1, WithBatchWindow(2*time.Millisecond))
	gotB := make(chan types.Message, 64)
	gotA := make(chan types.Message, 64)
	b.Register(recvAddr(), func(m types.Message) {
		gotB <- m
		_ = b.Send(types.Message{
			From: recvAddr(), To: types.Addr{Node: 0, Service: "cli"},
			NIC: 0, Type: "echo", Payload: m.Payload,
		})
	})
	a.Register(types.Addr{Node: 0, Service: "cli"}, func(m types.Message) { gotA <- m })

	const n = 16
	for i := 0; i < n; i++ {
		err := a.Send(types.Message{
			From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
			NIC: 0, Type: "req",
			Payload: types.ResourceStats{Node: types.NodeID(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		await(t, gotB)
		await(t, gotA)
	}
}

// TestBatchWindowValidation pins the option's bounds: it must sit in
// [0, rto).
func TestBatchWindowValidation(t *testing.T) {
	for _, d := range []time.Duration{-time.Millisecond, 50 * time.Millisecond, time.Minute} {
		_, err := New(0, nil, WithPlanes(1), WithBatchWindow(d), WithMetrics(metrics.NewRegistry()))
		if err == nil {
			t.Errorf("batch window %v accepted", d)
		}
	}
	tr, err := New(0, nil, WithPlanes(1), WithBatchWindow(10*time.Millisecond), WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatalf("valid batch window rejected: %v", err)
	}
	tr.Close()
}
