package wire

import (
	"sync"
)

// The batching layer sits between the reliability state machine and the
// sockets. Two ideas, both aimed at the steady-state cost per message:
//
//   - Buffer pooling: every frame the sender may retransmit, and every
//     datagram handed to a socket write, lives in a sync.Pool-backed
//     buffer. The frame buffers (pending/queued) never leave relMu's
//     protection — every transmission copies them into a flush buffer
//     while the lock is held — so returning them to the pool on settle,
//     drop or reset cannot race a concurrent write. Flush buffers are
//     released right after the socket write returns; when an outbound
//     filter is installed (the chaos injector may hold a datagram and
//     replay it later from another goroutine) flush buffers are not
//     pooled at all, since the transport can no longer prove when the
//     filter is done with them.
//
//   - Frame coalescing: with WithBatchWindow(d > 0), data frames bound
//     for the same (peer, plane) lane within d of each other are
//     appended to one open per-lane batch buffer and leave in a single
//     socket write — a sendmmsg-style amortisation without the
//     syscall. A batch flushes when the next frame would overflow the
//     MTU, when its window timer fires, or when the lane resets.
//     Standalone acks ride an open batch instead of paying their own
//     datagram. Retransmissions always bypass the batch: they exist
//     because the lane is losing traffic, so they should not wait on it.
//
// The default batch window is 0 — every frame still leaves in its own
// datagram, byte-for-byte compatible with the unbatched v3 framing — so
// the loss-injection and chaos suites exercise the same wire behaviour
// they always did unless a test opts in.

// wbuf is one pooled byte buffer.
type wbuf struct{ b []byte }

var (
	// framePool backs the per-frame retransmission buffers.
	framePool = sync.Pool{New: func() any { return new(wbuf) }}
	// flushPool backs assembled datagrams and encoded message bodies —
	// anything written and released within one call.
	flushPool = sync.Pool{New: func() any { return new(wbuf) }}
)

// poolCapMax keeps pathological buffers (a fragment burst of a huge
// message) from pinning memory forever: anything grown past it is dropped
// instead of pooled.
const poolCapMax = maxFrameSize + headerSize

func (t *Transport) newFrameBuf() *wbuf { return framePool.Get().(*wbuf) }

func (t *Transport) putFrameBuf(w *wbuf) {
	if w == nil || cap(w.b) > poolCapMax {
		return
	}
	w.b = w.b[:0]
	framePool.Put(w)
}

// getFlush returns a buffer for one datagram (or message body) that will
// be released by putFlush as soon as the write returns.
func (t *Transport) getFlush() *wbuf {
	if t.flushPooling {
		return flushPool.Get().(*wbuf)
	}
	return new(wbuf)
}

func (t *Transport) putFlush(w *wbuf) {
	if w == nil || !t.flushPooling || cap(w.b) > poolCapMax {
		return
	}
	w.b = w.b[:0]
	flushPool.Put(w)
}

// outbox collects the datagrams one locked section assembled, so they can
// be written after relMu is released. The common case is one datagram;
// only bursts (fragmented messages, window promotions) grow the slice.
type outbox struct {
	one  *wbuf
	more []*wbuf
}

func (o *outbox) add(w *wbuf) {
	if o.one == nil {
		o.one = w
	} else {
		o.more = append(o.more, w)
	}
}

func (o *outbox) empty() bool { return o.one == nil }

// stageLocked routes one encoded frame toward the socket: into the lane's
// open batch when batching is on, or into its own flush datagram. relMu
// must be held; the staged bytes are a copy, never an alias of data.
func (t *Transport) stageLocked(tx *txState, key peerKey, out *outbox, data []byte) {
	if t.opt.batchWindow <= 0 {
		w := t.getFlush()
		w.b = append(w.b[:0], data...)
		out.add(w)
		return
	}
	if tx.batch != nil && len(tx.batch.b)+len(data) > t.opt.mtu {
		// The next frame would overflow the datagram: seal this batch and
		// ship it with the caller's outbox; its timer has nothing left to
		// flush.
		tx.batchTimer.Stop()
		out.add(tx.batch)
		tx.batch = nil
		t.reg.Counter("wire.tx.batch_full_flushes").Inc()
	}
	if tx.batch == nil {
		tx.batch = t.getFlush()
		tx.batch.b = tx.batch.b[:0]
		tx.batchTimer = t.clk.AfterFunc(t.opt.batchWindow, func() { t.flushBatch(key) })
	} else {
		t.reg.Counter("wire.tx.batched_frames").Inc()
	}
	tx.batch.b = append(tx.batch.b, data...)
}

// flushBatch is the batch window timer's callback: ship whatever the lane
// has coalesced since the batch opened.
func (t *Transport) flushBatch(key peerKey) {
	t.mu.Lock()
	up, closed, book := t.up, t.closed, t.book
	t.mu.Unlock()

	t.relMu.Lock()
	tx := t.tx[key]
	if tx == nil || tx.batch == nil {
		t.relMu.Unlock()
		return
	}
	w := tx.batch
	tx.batch = nil
	t.relMu.Unlock()

	if closed || !up || book == nil {
		t.putFlush(w)
		return
	}
	ep, ok := book.Endpoint(key.node, key.plane)
	if !ok {
		t.putFlush(w)
		return
	}
	t.reg.Counter("wire.tx.batch_flushes").Inc()
	t.transmit(key.node, key.plane, ep, w.b)
	t.putFlush(w)
}

// dropBatchLocked discards a lane's open batch (lane drop, reset, close).
// relMu must be held.
func (t *Transport) dropBatchLocked(tx *txState) {
	if tx.batch == nil {
		return
	}
	tx.batchTimer.Stop()
	t.putFlush(tx.batch)
	tx.batch = nil
}

// deliver writes every datagram the outbox holds to one lane's endpoint
// and releases the buffers. Called with no locks held.
func (t *Transport) deliver(key peerKey, out *outbox) {
	if out.empty() {
		return
	}
	t.mu.Lock()
	book := t.book
	t.mu.Unlock()
	if book != nil {
		if ep, ok := book.Endpoint(key.node, key.plane); ok {
			t.transmit(key.node, key.plane, ep, out.one.b)
			for _, w := range out.more {
				t.transmit(key.node, key.plane, ep, w.b)
			}
		}
	}
	t.putFlush(out.one)
	for _, w := range out.more {
		t.putFlush(w)
	}
	out.one, out.more = nil, nil
}
