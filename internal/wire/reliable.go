package wire

import (
	"fmt"
	"net"
	"time"

	"repro/internal/clock"
	"repro/internal/types"
)

// The reliability layer sits between Send/dispatch and the UDP sockets.
// Sequence numbers, ack state, retransmit windows and reassembly buffers
// are all kept per (peer node, plane): the planes are independent physical
// networks in the paper's design, so a plane losing packets must not stall
// traffic on its siblings.
//
// Sender side: every data frame occupies one sequence number (starting at
// 1; 0 means "no sequence") and stays in a bounded in-flight window until
// the peer acks it. Frames that do not fit the window queue in order;
// retransmission backs off exponentially from the base RTO, and a frame
// that exhausts its retries declares the whole (peer, plane) unreachable —
// pending traffic is dropped and the fault surfaces through the
// WithPeerFaultHandler callback wrapping ErrPeerUnreachable.
//
// Receiver side: acks are cumulative-plus-bitmap (ack = highest sequence
// seen, ackBits bit i = sequence ack-1-i also seen), piggybacked on return
// data traffic or sent standalone after a short delay. Duplicates — from
// retransmission races or the wire itself — are counted and dropped, with
// a dupWindow-deep memory below the highest sequence seen. Fragments of
// one message occupy consecutive sequence numbers; seq-fragIndex keys the
// reassembly buffer, which expires if the remaining fragments never arrive
// (their retransmission having faulted the peer).
//
// All reliability state lives behind relMu, never the node's Loop: acks
// and retransmissions must flow even while daemon code holds the loop.

// peerKey names one directed traffic lane.
type peerKey struct {
	node  types.NodeID
	plane int
}

// pending is one transmitted-but-unacked frame. Its buffer never leaves
// relMu's protection: every (re)transmission copies it into a flush
// buffer under the lock, so settling it back into the pool cannot race a
// write in flight.
type pending struct {
	buf      *wbuf
	attempts int
	timer    clock.Timer
}

// queued is an encoded frame (sequence already assigned) waiting for
// window space; its buffer becomes the pending buffer on promotion.
type queued struct {
	seq uint32
	buf *wbuf
}

// txState is the sender's view of one (peer, plane) lane.
type txState struct {
	nextSeq  uint32
	inflight map[uint32]*pending
	queue    []queued
}

// rxState is the receiver's view of one (peer, plane) lane. seen is the
// duplicate-suppression memory, a ring of one bit per sequence: bit
// seq%dupWindow is set when seq — within dupWindow below latest — has
// been delivered.
type rxState struct {
	latest     uint32
	seen       [dupWindow / 64]uint64
	ackPending bool
	ackTimer   clock.Timer
	reasm      map[uint32]*reassembly
}

// reassembly collects the fragments of one message.
type reassembly struct {
	parts [][]byte
	have  int
	size  int
	timer clock.Timer
}

const (
	// dupWindow is how far below the highest sequence seen the receiver
	// remembers deliveries; anything older is assumed (and counted as) a
	// duplicate. It must exceed the send window, or slow retransmissions
	// of old frames would be re-delivered.
	dupWindow = 512

	// reassemblyExpiry bounds how long a partial message pins memory. It
	// comfortably exceeds the full retransmission budget of the default
	// retransmit policy, so it only fires once the sender has given up.
	reassemblyExpiry = 30 * time.Second
)

func (rx *rxState) has(seq uint32) bool {
	slot := seq % dupWindow
	return rx.seen[slot/64]&(1<<(slot%64)) != 0
}

func (rx *rxState) mark(seq uint32) {
	slot := seq % dupWindow
	rx.seen[slot/64] |= 1 << (slot % 64)
}

// advance raises latest to seq and marks it, first clearing the slots the
// window moves over: they hold the bits of sequences dupWindow older,
// which have just left the window.
func (rx *rxState) advance(seq uint32) {
	if seq-rx.latest >= dupWindow {
		rx.seen = [dupWindow / 64]uint64{}
	} else {
		for s := rx.latest + 1; s != seq+1; s++ {
			slot := s % dupWindow
			rx.seen[slot/64] &^= 1 << (slot % 64)
		}
	}
	rx.latest = seq
	rx.mark(seq)
}

func (t *Transport) txFor(key peerKey) *txState {
	tx := t.tx[key]
	if tx == nil {
		tx = &txState{nextSeq: 1, inflight: make(map[uint32]*pending)}
		t.tx[key] = tx
	}
	return tx
}

func (t *Transport) rxFor(key peerKey) *rxState {
	rx := t.rx[key]
	if rx == nil {
		rx = &rxState{reasm: make(map[uint32]*reassembly)}
		t.rx[key] = rx
	}
	return rx
}

// sendReliable fragments one encoded message body onto the (dst, plane)
// lane and transmits what fits the window. Called with no locks held.
func (t *Transport) sendReliable(dst types.NodeID, plane int, ep *net.UDPAddr, body []byte, msgType string) error {
	maxPayload := t.opt.mtu - headerSize
	nfrag := (len(body) + maxPayload - 1) / maxPayload
	if nfrag > maxFragments {
		t.reg.Counter("wire.tx.drop.oversize").Inc()
		return fmt.Errorf("wire: message %s is %d bytes, exceeds %d fragments of %d-byte MTU",
			msgType, len(body), maxFragments, t.opt.mtu)
	}
	key := peerKey{dst, plane}

	t.relMu.Lock()
	tx := t.txFor(key)
	avail := t.opt.window - len(tx.inflight)
	if avail < 0 {
		avail = 0
	}
	if over := nfrag - avail; over > 0 && len(tx.queue)+over > t.opt.queueMax {
		t.relMu.Unlock()
		t.reg.Counter("wire.tx.drop.overflow").Inc()
		return fmt.Errorf("wire: send queue to %v plane %d is full (%d frames): %w",
			dst, plane, t.opt.queueMax, ErrPeerUnreachable)
	}
	ack, ackBits, ackFlag := t.takeAckLocked(key)
	var out outbox
	stalled := 0
	for i := 0; i < nfrag; i++ {
		seq := tx.nextSeq
		tx.nextSeq++
		f := frame{
			plane: plane, flags: flagData | ackFlag, src: t.node,
			seq: seq, ack: ack, ackBits: ackBits,
			fragCount: 1,
		}
		if nfrag > 1 {
			f.flags |= flagFrag
			f.fragIndex, f.fragCount = uint16(i), uint16(nfrag)
			t.reg.Counter("wire.tx.frags").Inc()
		}
		lo := i * maxPayload
		hi := lo + maxPayload
		if hi > len(body) {
			hi = len(body)
		}
		f.payload = body[lo:hi]
		fb := t.newFrameBuf()
		fb.b = appendFrame(fb.b[:0], f)
		if len(tx.inflight) < t.opt.window {
			t.armLocked(tx, key, seq, fb)
			w := t.getFlush()
			w.b = append(w.b[:0], fb.b...)
			out.add(w)
		} else {
			tx.queue = append(tx.queue, queued{seq: seq, buf: fb})
			stalled++
		}
	}
	t.relMu.Unlock()

	if stalled > 0 {
		t.reg.Counter("wire.tx.window_stalls").Add(float64(stalled))
	}
	t.deliver(key, &out)
	return nil
}

// armLocked registers a frame in the in-flight window and starts its
// retransmit timer. relMu must be held.
func (t *Transport) armLocked(tx *txState, key peerKey, seq uint32, fb *wbuf) {
	p := &pending{buf: fb}
	tx.inflight[seq] = p
	p.timer = t.clk.AfterFunc(t.opt.rto, func() { t.retransmit(key, seq) })
}

// retransmit is the timer callback of one in-flight frame.
func (t *Transport) retransmit(key peerKey, seq uint32) {
	t.mu.Lock()
	up, closed, book := t.up, t.closed, t.book
	t.mu.Unlock()

	t.relMu.Lock()
	tx := t.tx[key]
	if tx == nil {
		t.relMu.Unlock()
		return
	}
	p := tx.inflight[seq]
	if p == nil {
		t.relMu.Unlock()
		return
	}
	if closed || !up || book == nil {
		// A dead or down node transmits nothing; abandon silently.
		delete(tx.inflight, seq)
		t.putFrameBuf(p.buf)
		t.relMu.Unlock()
		return
	}
	p.attempts++
	if p.attempts > t.opt.retries {
		t.dropLaneLocked(key)
		fn := t.opt.onPeerFault
		t.relMu.Unlock()
		t.reg.Counter("wire.tx.peer_faults").Inc()
		t.markLaneDown(key)
		if fn != nil {
			fn(key.node, key.plane, fmt.Errorf("wire: %v plane %d: no ack after %d retransmits: %w",
				key.node, key.plane, t.opt.retries, ErrPeerUnreachable))
		}
		return
	}
	backoff := t.opt.rto << uint(p.attempts)
	if backoff > t.opt.rtoMax {
		backoff = t.opt.rtoMax
	}
	p.timer = t.clk.AfterFunc(backoff, func() { t.retransmit(key, seq) })
	// Copy the frame under relMu, so a concurrent ack settling p back into
	// the pool cannot race the write.
	w := t.getFlush()
	w.b = append(w.b[:0], p.buf.b...)
	t.relMu.Unlock()

	ep, ok := book.Endpoint(key.node, key.plane)
	if !ok {
		t.putFlush(w)
		return
	}
	t.reg.Counter("wire.tx.retransmits").Inc()
	t.transmit(key.node, key.plane, ep, w.b)
	t.putFlush(w)
}

// dropLaneLocked abandons all traffic queued or in flight to one lane.
// relMu must be held.
func (t *Transport) dropLaneLocked(key peerKey) {
	tx := t.tx[key]
	if tx == nil {
		return
	}
	for _, p := range tx.inflight {
		p.timer.Stop()
		t.putFrameBuf(p.buf)
	}
	for _, q := range tx.queue {
		t.putFrameBuf(q.buf)
	}
	// Keep nextSeq: if the peer returns, its dup window is keyed to the
	// highest sequence it saw, so sequence numbers must not restart.
	tx.inflight = make(map[uint32]*pending)
	tx.queue = nil
}

// handleAck processes the ack fields of one inbound frame and promotes
// queued frames into the freed window. Called with no locks held.
func (t *Transport) handleAck(key peerKey, ack, ackBits uint32) {
	t.relMu.Lock()
	tx := t.tx[key]
	if tx == nil {
		t.relMu.Unlock()
		return
	}
	settled := 0
	settle := func(seq uint32) {
		if p := tx.inflight[seq]; p != nil {
			p.timer.Stop()
			t.putFrameBuf(p.buf)
			delete(tx.inflight, seq)
			settled++
		}
	}
	settle(ack)
	for i := uint32(0); i < 32; i++ {
		if ackBits&(1<<i) != 0 && ack > i+1 {
			settle(ack - 1 - i)
		}
	}
	var out outbox
	for len(tx.queue) > 0 && len(tx.inflight) < t.opt.window {
		q := tx.queue[0]
		tx.queue = tx.queue[1:]
		t.armLocked(tx, key, q.seq, q.buf)
		w := t.getFlush()
		w.b = append(w.b[:0], q.buf.b...)
		out.add(w)
	}
	t.relMu.Unlock()

	if settled > 0 {
		// The peer acked traffic on this lane: it demonstrably delivers.
		t.markLaneUp(key)
	}
	t.deliver(key, &out)
}

// handleData runs the receive side of the state machine for one data
// frame: duplicate suppression, ack scheduling, reassembly. It returns the
// complete message body when this frame finishes a message, nil otherwise.
// Called with no locks held; the frame's payload aliases the read buffer,
// so anything retained is copied.
func (t *Transport) handleData(key peerKey, f frame) []byte {
	t.relMu.Lock()
	rx := t.rxFor(key)
	dup := false
	switch {
	case f.seq > rx.latest:
		rx.advance(f.seq)
	case rx.latest-f.seq >= dupWindow || rx.has(f.seq):
		dup = true
	default:
		rx.mark(f.seq)
	}
	// Schedule an ack either way: a duplicate means the sender missed it.
	if !rx.ackPending {
		rx.ackPending = true
		rx.ackTimer = t.clk.AfterFunc(t.opt.ackDelay, func() { t.sendAck(key) })
	}
	if dup {
		t.relMu.Unlock()
		t.reg.Counter("wire.rx.dup_drops").Inc()
		return nil
	}
	if f.flags&flagFrag == 0 {
		t.relMu.Unlock()
		return append([]byte(nil), f.payload...)
	}

	t.reg.Counter("wire.rx.frags").Inc()
	base := f.seq - uint32(f.fragIndex)
	r := rx.reasm[base]
	if r == nil {
		r = &reassembly{parts: make([][]byte, f.fragCount)}
		rx.reasm[base] = r
		r.timer = t.clk.AfterFunc(reassemblyExpiry, func() { t.expireReassembly(key, base) })
	}
	if int(f.fragCount) != len(r.parts) || r.parts[f.fragIndex] != nil {
		t.relMu.Unlock()
		t.reg.Counter("wire.rx.frag_mismatch").Inc()
		return nil
	}
	r.parts[f.fragIndex] = append([]byte(nil), f.payload...)
	r.have++
	r.size += len(f.payload)
	if r.have < len(r.parts) {
		t.relMu.Unlock()
		return nil
	}
	r.timer.Stop()
	delete(rx.reasm, base)
	body := make([]byte, 0, r.size)
	for _, part := range r.parts {
		body = append(body, part...)
	}
	t.relMu.Unlock()
	t.reg.Counter("wire.rx.frag_reassembled").Inc()
	return body
}

// expireReassembly discards a partial message whose remaining fragments
// never arrived.
func (t *Transport) expireReassembly(key peerKey, base uint32) {
	t.relMu.Lock()
	rx := t.rx[key]
	if rx == nil {
		t.relMu.Unlock()
		return
	}
	if _, ok := rx.reasm[base]; !ok {
		t.relMu.Unlock()
		return
	}
	delete(rx.reasm, base)
	t.relMu.Unlock()
	t.reg.Counter("wire.rx.frag_timeouts").Inc()
}

// takeAckLocked reads the current ack fields for piggybacking on an
// outbound data frame and cancels any pending standalone ack. relMu must
// be held.
func (t *Transport) takeAckLocked(key peerKey) (ack, ackBits uint32, flag byte) {
	rx := t.rx[key]
	if rx == nil || rx.latest == 0 {
		return 0, 0, 0
	}
	if rx.ackPending {
		rx.ackPending = false
		rx.ackTimer.Stop()
		t.reg.Counter("wire.tx.ack_piggybacked").Inc()
	}
	ack, ackBits = ackFieldsLocked(rx)
	return ack, ackBits, flagAck
}

// ackFieldsLocked derives the cumulative-plus-bitmap ack from the receive
// state. relMu must be held.
func ackFieldsLocked(rx *rxState) (ack, bits uint32) {
	ack = rx.latest
	for i := uint32(0); i < 32 && ack > i+1; i++ {
		if rx.has(ack - 1 - i) {
			bits |= 1 << i
		}
	}
	return ack, bits
}

// sendAck emits one standalone ack frame for a lane whose delayed-ack
// timer fired before return traffic could piggyback it.
func (t *Transport) sendAck(key peerKey) {
	t.mu.Lock()
	up, closed, book := t.up, t.closed, t.book
	t.mu.Unlock()

	t.relMu.Lock()
	rx := t.rx[key]
	if rx == nil || !rx.ackPending {
		t.relMu.Unlock()
		return
	}
	rx.ackPending = false
	if closed || !up || book == nil {
		t.relMu.Unlock()
		return
	}
	ack, bits := ackFieldsLocked(rx)
	t.relMu.Unlock()

	ep, ok := book.Endpoint(key.node, key.plane)
	if !ok {
		return
	}
	w := t.getFlush()
	w.b = appendFrame(w.b[:0], frame{plane: key.plane, flags: flagAck, src: t.node, ack: ack, ackBits: bits})
	t.reg.Counter("wire.tx.acks").Inc()
	t.transmit(key.node, key.plane, ep, w.b)
	t.putFlush(w)
}

// resetReliability stops every reliability timer and discards all lane
// state — the transport-level meaning of node death (Close) or power-off.
func (t *Transport) resetReliability() {
	t.relMu.Lock()
	defer t.relMu.Unlock()
	for _, tx := range t.tx {
		for _, p := range tx.inflight {
			p.timer.Stop()
			t.putFrameBuf(p.buf)
		}
		for _, q := range tx.queue {
			t.putFrameBuf(q.buf)
		}
		tx.inflight = make(map[uint32]*pending)
		tx.queue = nil
	}
	for _, rx := range t.rx {
		if rx.ackPending {
			rx.ackPending = false
			rx.ackTimer.Stop()
		}
		for base, r := range rx.reasm {
			r.timer.Stop()
			delete(rx.reasm, base)
		}
	}
}
