package wire

import (
	"sync"
)

// Buffer pooling sits between the reliability state machine and the
// sockets: every frame the sender may retransmit, and every datagram
// handed to a socket write, lives in a sync.Pool-backed buffer. The frame
// buffers (pending/queued) never leave relMu's protection — every
// transmission copies them into a flush buffer while the lock is held —
// so returning them to the pool on settle, drop or reset cannot race a
// concurrent write. Flush buffers are released right after the socket
// write returns; when an outbound filter is installed (the chaos injector
// may hold a datagram and replay it later from another goroutine) flush
// buffers are not pooled at all, since the transport can no longer prove
// when the filter is done with them.
//
// The sender puts exactly one frame in each datagram: a data frame, a
// retransmission, a standalone ack or a probe each pay their own socket
// write.

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
