package wire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/types"
)

// textRows is the bulk payload of the fragmentation tests, registered in
// the range the kernel leaves to tests.
type textRows []string

func init() { codec.Register(0xfff0, textRows(nil)) }

// dropFirstTransmissions is an OutboundFilter that drops the first
// transmission of every data sequence and passes everything else (acks,
// retransmits): the minimal fabric on which only retransmission delivers.
func dropFirstTransmissions() OutboundFilter {
	var mu sync.Mutex
	seen := make(map[uint32]bool)
	return func(peer types.NodeID, plane int, data []byte, transmit func()) {
		f, err := parseFrame(data)
		if err == nil && f.isData() {
			mu.Lock()
			first := !seen[f.seq]
			seen[f.seq] = true
			mu.Unlock()
			if first {
				return // dropped
			}
		}
		transmit()
	}
}

func TestRetransmitDeliversThroughLoss(t *testing.T) {
	a, b := pair(t, 1, WithRetransmit(20*time.Millisecond, 8), WithAckDelay(5*time.Millisecond),
		WithOutboundFilter(dropFirstTransmissions()))
	got := make(chan types.Message, 1)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	err := a.Send(types.Message{
		From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
		NIC: 0, Type: "ping", Payload: types.ResourceStats{Node: 0, CPUPct: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := await(t, got)
	if rs, ok := m.Payload.(types.ResourceStats); !ok || rs.CPUPct != 7 {
		t.Fatalf("payload after retransmission: %#v", m.Payload)
	}
	if a.Metrics().Counter("wire.tx.retransmits").Value() == 0 {
		t.Error("delivery through loss counted no retransmits")
	}
}

// duplicateEverything transmits every datagram twice, immediately.
func duplicateEverything() OutboundFilter {
	return func(peer types.NodeID, plane int, data []byte, transmit func()) {
		transmit()
		transmit()
	}
}

func TestDuplicateSuppression(t *testing.T) {
	a, b := pair(t, 1, WithOutboundFilter(duplicateEverything()))
	got := make(chan types.Message, 32)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	const n = 8
	for i := 0; i < n; i++ {
		err := a.Send(types.Message{
			From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
			NIC: 0, Type: fmt.Sprintf("m%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]int)
	for i := 0; i < n; i++ {
		seen[await(t, got).Type]++
	}
	// Give any duplicate deliveries time to surface, then check exactness.
	time.Sleep(200 * time.Millisecond)
	for len(got) > 0 {
		seen[(<-got).Type]++
	}
	for typ, count := range seen {
		if count != 1 {
			t.Errorf("message %s delivered %d times", typ, count)
		}
	}
	if len(seen) != n {
		t.Errorf("delivered %d distinct messages, want %d", len(seen), n)
	}
	waitNonzero(t, b, "wire.rx.dup_drops")
}

func waitNonzero(t *testing.T, tr *Transport, counter string) {
	t.Helper()
	for start := time.Now(); time.Since(start) < 5*time.Second; time.Sleep(5 * time.Millisecond) {
		if tr.Metrics().Counter(counter).Value() > 0 {
			return
		}
	}
	t.Fatalf("%s never incremented", counter)
}

func TestPeerFaultAfterRetryExhaustion(t *testing.T) {
	// The book names a peer endpoint nothing listens on: every
	// transmission vanishes, the retry budget burns down, and the lane
	// must surface a transport-level fault wrapping ErrPeerUnreachable.
	faults := make(chan error, 4)
	tr, err := New(0, nil, WithPlanes(1),
		WithRetransmit(10*time.Millisecond, 3), WithAckDelay(2*time.Millisecond),
		WithPeerFaultHandler(func(peer types.NodeID, plane int, err error) {
			if peer != 1 || plane != 0 {
				t.Errorf("fault on lane (%v, %d), want (node1, 0)", peer, plane)
			}
			faults <- err
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	book := NewBook()
	for p, ep := range tr.Endpoints() {
		if err := book.Add(0, p, ep); err != nil {
			t.Fatal(err)
		}
	}
	if err := book.Set(1, 0, "127.0.0.1:9"); err != nil { // discard port: no listener
		t.Fatal(err)
	}
	tr.SetBook(book)

	if err := tr.Send(types.Message{
		From: types.Addr{Node: 0, Service: "cli"},
		To:   types.Addr{Node: 1, Service: "svc"}, NIC: 0, Type: "ping",
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-faults:
		if !errors.Is(err, ErrPeerUnreachable) {
			t.Fatalf("fault error = %v, want ErrPeerUnreachable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no peer fault within 5s")
	}
	if tr.Metrics().Counter("wire.tx.peer_faults").Value() == 0 {
		t.Error("peer fault not counted")
	}
}

func TestFragmentationAtSmallMTU(t *testing.T) {
	a, b := pair(t, 1, WithMTU(512), WithRetransmit(20*time.Millisecond, 8), WithAckDelay(5*time.Millisecond))
	got := make(chan types.Message, 1)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	lines := make(textRows, 256)
	for i := range lines {
		lines[i] = fmt.Sprintf("entry-%04d-%s", i, strings.Repeat("x", 24))
	}
	msg := types.Message{
		From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
		NIC: 0, Type: "bulk", Payload: lines,
	}
	body, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	size := len(body)
	if size <= 512 {
		t.Fatalf("test payload encodes to %d bytes, too small to fragment", size)
	}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	m := await(t, got)
	back, ok := m.Payload.(textRows)
	if !ok || len(back) != len(lines) {
		t.Fatalf("payload mangled: %T, %d entries", m.Payload, len(back))
	}
	for i := range lines {
		if back[i] != lines[i] {
			t.Fatalf("entry %d mangled: %q", i, back[i])
		}
	}
	wantFrags := float64((size + (512 - headerSize) - 1) / (512 - headerSize))
	if got := a.Metrics().Counter("wire.tx.frags").Value(); got < wantFrags {
		t.Errorf("tx.frags = %v, want >= %v", got, wantFrags)
	}
	if b.Metrics().Counter("wire.rx.frag_reassembled").Value() != 1 {
		t.Errorf("rx.frag_reassembled = %v, want 1",
			b.Metrics().Counter("wire.rx.frag_reassembled").Value())
	}
}

func TestWindowStallsAndDrains(t *testing.T) {
	a, b := pair(t, 1, WithWindow(1), WithRetransmit(20*time.Millisecond, 8), WithAckDelay(5*time.Millisecond))
	got := make(chan types.Message, 64)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	const n = 16
	for i := 0; i < n; i++ {
		err := a.Send(types.Message{
			From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
			NIC: 0, Type: fmt.Sprintf("m%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		seen[await(t, got).Type] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), n)
	}
	if a.Metrics().Counter("wire.tx.window_stalls").Value() == 0 {
		t.Error("a 16-message burst through a 1-frame window stalled nothing")
	}
}

func TestSendQueueOverflowIsReported(t *testing.T) {
	// Window 1, tiny queue, peer that never acks: the queue must fill and
	// further sends must fail fast with ErrPeerUnreachable context.
	tr, err := New(0, nil, WithPlanes(1), WithWindow(1),
		WithRetransmit(50*time.Millisecond, 10), WithAckDelay(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	tr.opt.queueMax = 4
	book := NewBook()
	for p, ep := range tr.Endpoints() {
		if err := book.Add(0, p, ep); err != nil {
			t.Fatal(err)
		}
	}
	if err := book.Set(1, 0, "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	tr.SetBook(book)

	var overflow error
	for i := 0; i < 16 && overflow == nil; i++ {
		overflow = tr.Send(types.Message{
			From: types.Addr{Node: 0, Service: "cli"},
			To:   types.Addr{Node: 1, Service: "svc"}, NIC: 0, Type: "ping",
		})
	}
	if !errors.Is(overflow, ErrPeerUnreachable) {
		t.Fatalf("overflow error = %v, want ErrPeerUnreachable", overflow)
	}
	if tr.Metrics().Counter("wire.tx.drop.overflow").Value() == 0 {
		t.Error("overflow not counted")
	}
}

// TestDupRingWindowAndWrap drives the receiver's duplicate ring directly:
// a frame dupWindow below latest is a duplicate, one just inside the
// window is delivered exactly once, and advancing latest over a slot —
// across the ring's wrap and a 64-bit word boundary — clears the bit the
// sequence dupWindow older left there.
func TestDupRingWindowAndWrap(t *testing.T) {
	tr, err := New(0, nil, WithPlanes(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	key := peerKey{node: 1, plane: 0}
	delivered := func(seq uint32) bool {
		return tr.handleData(key, frame{flags: flagData, seq: seq, fragCount: 1, payload: []byte{1}}) != nil
	}
	mustDeliver := func(seq uint32) {
		t.Helper()
		if !delivered(seq) {
			t.Fatalf("seq %d dropped as duplicate, want delivered", seq)
		}
	}
	mustDrop := func(seq uint32) {
		t.Helper()
		if delivered(seq) {
			t.Fatalf("seq %d delivered, want dropped as duplicate", seq)
		}
	}

	// 1..68 in order: crosses a 64-bit word boundary of the ring.
	for seq := uint32(1); seq <= 68; seq++ {
		mustDeliver(seq)
	}
	mustDrop(64)
	if ack, bits := ackFieldsLocked(tr.rx[key]); ack != 68 || bits != 0xffffffff {
		t.Fatalf("ack fields = %d/%#x, want 68/0xffffffff", ack, bits)
	}

	// latest jumps to 60+dupWindow, skipping 69..571. The window is now
	// (60, 572]: 60 sits exactly dupWindow below, 61..68 are remembered,
	// and the slots of the skipped sequences — which held the bits of
	// 1..59 — must read as unseen.
	latest := uint32(60 + dupWindow)
	mustDeliver(latest)
	mustDrop(latest - dupWindow)     // 60: too old
	mustDrop(latest - dupWindow + 1) // 61: inside, delivered before the jump
	mustDeliver(latest - dupWindow + 9)
	mustDrop(latest - dupWindow + 9) // 69: inside, delivered just now
	mustDeliver(latest - 1)          // 571 shares a slot with 59
	mustDeliver(dupWindow + 1)       // 513 shares a slot with 1
	if ack, bits := ackFieldsLocked(tr.rx[key]); ack != latest || bits != 1 {
		t.Fatalf("ack fields = %d/%#x, want %d/0x1", ack, bits, latest)
	}

	// Advance across the ring's wrap (slot 511 -> 0) leaving holes: the
	// hole at 2*dupWindow+1 shares its slot with 513, delivered above.
	mustDeliver(2*dupWindow - 2)
	mustDeliver(2*dupWindow + 2)
	for seq := uint32(2*dupWindow - 1); seq <= 2*dupWindow+1; seq++ {
		mustDeliver(seq)
		mustDrop(seq)
	}

	// A jump of more than a full window forgets everything.
	far := uint32(6 * dupWindow)
	mustDeliver(far)
	mustDeliver(far - 1)
	mustDrop(far - dupWindow)
	if got := tr.Metrics().Counter("wire.rx.dup_drops").Value(); got != 8 {
		t.Fatalf("dup_drops = %v, want 8", got)
	}
}
