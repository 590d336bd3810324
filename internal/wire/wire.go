// Package wire is the production transport of the Phoenix reproduction:
// real UDP sockets instead of the simulated fabric. One Transport runs
// inside each phoenix-node OS process and binds one socket per network
// plane (the paper's per-NIC heartbeat channels, §4.3), so a message sent
// on NIC k genuinely leaves on plane k's socket and arrives on the peer's
// plane-k socket.
//
// Unlike raw UDP, the transport delivers: a reliability layer between the
// kernel and the sockets (frame format v3) sequences every message,
// retransmits with exponential backoff inside a bounded per-peer window,
// suppresses duplicates on receive, and fragments bodies larger than the
// MTU — the paper's kernel assumes its channels deliver (heartbeat
// analysis, diagnosis probing and federation queries all sit on top of
// messaging), and the Microsoft Cluster Service regroup protocol makes the
// same requirement explicit. Peers that exhaust the retransmission budget
// surface as transport-level faults through WithPeerFaultHandler.
//
// The package deliberately mirrors internal/simnet's surface — Register /
// Unregister / Send with datagram semantics — so that *Transport and
// *simnet.Network are interchangeable behind simhost.Fabric: the entire
// kernel (watch daemons, GSDs, event/bulletin/checkpoint federations,
// detectors, PPM) runs unmodified on either. What the simulator schedules
// on its event goroutine, the transport serialises through a per-node
// Loop, preserving the single-threaded discipline daemon code assumes.
package wire

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Transport is one node's real-socket attachment: a set of bound UDP
// sockets (one per plane), the reliability state of every traffic lane, a
// handler table equivalent to simnet.Network.Register, and the address
// book naming every peer.
type Transport struct {
	node types.NodeID
	loop *Loop
	reg  *metrics.Registry
	clk  clock.Clock
	opt  options

	conns []*net.UDPConn
	wg    sync.WaitGroup

	// flushPooling gates sync.Pool reuse of assembled datagrams: off when
	// an outbound filter is installed, since a filter may hold a datagram
	// and replay it from another goroutine after the write call returned.
	flushPooling bool

	mu       sync.Mutex
	book     *Book
	handlers map[types.Addr]func(types.Message)
	up       bool
	closed   bool

	relMu sync.Mutex
	tx    map[peerKey]*txState
	rx    map[peerKey]*rxState

	healthMu sync.Mutex
	health   map[peerKey]*laneHealth
}

// New binds a transport for one node. With a non-nil book it binds the
// node's address-book endpoints (one socket per plane) and is ready to
// Send on return. With a nil book it needs WithPlanes(n) and binds n
// ephemeral loopback ports — the in-process test path, where the caller
// collects Endpoints from every transport into a shared Book and attaches
// it with SetBook before traffic flows.
func New(node types.NodeID, book *Book, opts ...Option) (*Transport, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	var laddrs []*net.UDPAddr
	switch {
	case book != nil && o.planes != 0:
		return nil, fmt.Errorf("wire: WithPlanes is for bookless (ephemeral) transports")
	case book != nil:
		laddrs = make([]*net.UDPAddr, book.Planes())
		for p := range laddrs {
			a, ok := book.Endpoint(node, p)
			if !ok {
				return nil, fmt.Errorf("wire: book has no endpoint for %v plane %d: %w", node, p, ErrUnknownPeer)
			}
			laddrs[p] = a
		}
	case o.planes > 0:
		laddrs = make([]*net.UDPAddr, o.planes)
		for p := range laddrs {
			laddrs[p] = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
		}
	default:
		return nil, fmt.Errorf("wire: need an address book or WithPlanes(n)")
	}

	t := &Transport{
		node: node, loop: NewLoop(), reg: o.reg, clk: clock.Real{}, opt: o,
		flushPooling: o.filter == nil,
		handlers:     make(map[types.Addr]func(types.Message)),
		up:           true,
		tx:           make(map[peerKey]*txState),
		rx:           make(map[peerKey]*rxState),
		health:       make(map[peerKey]*laneHealth),
	}
	for p, laddr := range laddrs {
		conn, err := net.ListenUDP("udp", laddr)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("wire: bind %v plane %d at %v: %w", node, p, laddr, err)
		}
		t.conns = append(t.conns, conn)
	}
	if book != nil {
		t.book = book
	}
	for p, conn := range t.conns {
		t.wg.Add(1)
		go t.readLoop(p, conn)
	}
	return t, nil
}

// Node reports the transport's node ID.
func (t *Transport) Node() types.NodeID { return t.node }

// Planes reports the number of bound planes.
func (t *Transport) Planes() int { return len(t.conns) }

// Loop returns the node's serialisation loop.
func (t *Transport) Loop() *Loop { return t.loop }

// Metrics exposes the registry the transport accounts into.
func (t *Transport) Metrics() *metrics.Registry { return t.reg }

// Endpoints reports the actually-bound local address of every plane —
// after an ephemeral New these carry the kernel-assigned ports that go
// into the shared Book.
func (t *Transport) Endpoints() []*net.UDPAddr {
	out := make([]*net.UDPAddr, len(t.conns))
	for p, c := range t.conns {
		out[p] = c.LocalAddr().(*net.UDPAddr)
	}
	return out
}

// SetBook attaches (or replaces) the address book used to route sends.
func (t *Transport) SetBook(book *Book) {
	t.mu.Lock()
	t.book = book
	t.mu.Unlock()
}

// Register implements simhost.Fabric: it binds a handler to an address.
// Handlers are invoked inside the node's Loop. Registering an
// already-bound address replaces the handler (a restarted daemon reclaims
// its address).
func (t *Transport) Register(addr types.Addr, h func(msg types.Message)) {
	if h == nil {
		panic("wire: nil handler for " + addr.String())
	}
	if addr.Node != t.node {
		panic(fmt.Sprintf("wire: cannot register %v on %v's transport", addr, t.node))
	}
	t.mu.Lock()
	t.handlers[addr] = h
	t.mu.Unlock()
}

// Unregister implements simhost.Fabric.
func (t *Transport) Unregister(addr types.Addr) {
	t.mu.Lock()
	delete(t.handlers, addr)
	t.mu.Unlock()
}

// Registered reports whether a handler is bound at addr.
func (t *Transport) Registered(addr types.Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.handlers[addr]
	return ok
}

// SetNodeUp implements simhost.Fabric. A transport only controls its own
// node's presence: powering it off silences both directions — datagrams
// are still drained from the sockets but dropped before acking or
// dispatch, retransmission timers abandon their frames, and no ack leaves
// the node — which is what simhost.Host.PowerOff expects from the fabric:
// to every peer, a powered-off node is indistinguishable from a dead one,
// and their retransmissions to it eventually fault the lane.
func (t *Transport) SetNodeUp(id types.NodeID, up bool) {
	if id != t.node {
		return
	}
	t.mu.Lock()
	t.up = up
	t.mu.Unlock()
	if !up {
		t.resetReliability()
		t.resetLaneHealth()
	}
}

// Send implements simhost.Fabric. Local failures — a down or unroutable
// sender, an unknown destination (ErrUnknownPeer), a full send queue — are
// returned synchronously; once a message is accepted, the reliability
// layer owns it: the message is fragmented to the MTU, sequenced,
// retransmitted until acked, and a peer that never acks is reported
// through the fault handler. A message with NIC == types.AnyNIC leaves on
// the first plane that has an endpoint for the destination and whose lane
// is not marked down — a dead plane fails traffic over to its siblings
// (see health.go for the probing policy that lets the dead plane heal).
func (t *Transport) Send(msg types.Message) error {
	t.mu.Lock()
	book, up, closed := t.book, t.up, t.closed
	t.mu.Unlock()
	if closed {
		return fmt.Errorf("wire: transport closed")
	}
	if !up {
		return fmt.Errorf("wire: source %v is down", t.node)
	}
	if book == nil {
		t.reg.Counter("wire.tx.drop.noroute").Inc()
		return fmt.Errorf("wire: no address book attached")
	}

	plane := msg.NIC
	if plane == types.AnyNIC {
		plane = t.pickPlane(book, msg.To.Node)
		if plane == -1 {
			t.reg.Counter("wire.tx.drop.noroute").Inc()
			return fmt.Errorf("wire: no endpoint for %v in address book: %w", msg.To.Node, ErrUnknownPeer)
		}
	} else if plane < 0 || plane >= len(t.conns) {
		return fmt.Errorf("wire: invalid NIC %d", plane)
	}
	ep, ok := book.Endpoint(msg.To.Node, plane)
	if !ok {
		t.reg.Counter("wire.tx.drop.noroute").Inc()
		return fmt.Errorf("wire: no endpoint for %v plane %d in address book: %w", msg.To.Node, plane, ErrUnknownPeer)
	}

	msg.NIC = plane
	msg.Sent = t.clk.Now()
	// The body buffer is pooled: sendReliable copies it into per-frame
	// buffers before returning, so it never outlives this call.
	bw := t.getFlush()
	body, err := codec.AppendMessage(bw.b[:0], msg)
	if err != nil {
		t.putFlush(bw)
		t.reg.Counter("wire.tx.drop.encode").Inc()
		return err
	}
	bw.b = body
	err = t.sendReliable(msg.To.Node, plane, ep, body, msg.Type)
	t.putFlush(bw)
	if err != nil {
		return err
	}
	t.reg.Counter("wire.tx.msgs").Inc()
	t.reg.Counter("wire.tx.msgs." + msg.Type).Inc()
	return nil
}

// transmit puts one datagram on the wire, routing it through the outbound
// filter when one is installed.
func (t *Transport) transmit(peer types.NodeID, plane int, ep *net.UDPAddr, data []byte) {
	if t.opt.filter != nil {
		t.opt.filter(peer, plane, data, func() { t.rawWrite(plane, ep, data) })
		return
	}
	t.rawWrite(plane, ep, data)
}

// rawWrite is the socket write plus traffic accounting. Safe after Close
// (the write fails and is counted); plane is trusted to be in range.
func (t *Transport) rawWrite(plane int, ep *net.UDPAddr, data []byte) {
	if _, err := t.conns[plane].WriteToUDP(data, ep); err != nil {
		t.reg.Counter("wire.tx.drop.write").Inc()
		return
	}
	t.reg.Counter("wire.tx.datagrams").Inc()
	t.reg.Counter("wire.tx.bytes").Add(float64(len(data)))
	t.reg.Counter(fmt.Sprintf("wire.tx.datagrams.plane%d", plane)).Inc()
	t.reg.Counter(fmt.Sprintf("wire.tx.bytes.plane%d", plane)).Add(float64(len(data)))
}

// readLoop drains one plane's socket until the transport closes. Frame
// parsing, the reliability state machine and body decoding all run on
// this goroutine (CPU-bound, loop-free); completed messages are
// dispatched inside the loop, mirroring the delivery discipline of the
// simulator. The format lets a datagram carry several frames (this sender
// never builds one); it is validated as a whole — one malformed frame
// rejects the entire datagram — before any frame is acted on.
func (t *Transport) readLoop(plane int, conn *net.UDPConn) {
	defer t.wg.Done()
	buf := make([]byte, maxFrameSize+1)
	frames := make([]frame, 0, 8)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return
			}
			t.reg.Counter("wire.rx.read_errors").Inc()
			continue
		}
		t.reg.Counter("wire.rx.datagrams").Inc()
		t.reg.Counter("wire.rx.bytes").Add(float64(n))
		t.reg.Counter(fmt.Sprintf("wire.rx.datagrams.plane%d", plane)).Inc()
		t.reg.Counter(fmt.Sprintf("wire.rx.bytes.plane%d", plane)).Add(float64(n))
		frames = frames[:0]
		valid := true
		for off := 0; off < n; {
			f, next, err := parseFrameAt(buf[:n], off)
			if err != nil {
				valid = false
				break
			}
			frames = append(frames, f)
			off = next
		}
		if !valid || len(frames) == 0 {
			t.reg.Counter("wire.rx.decode_errors").Inc()
			continue
		}
		if len(frames) > 1 {
			t.reg.Counter("wire.rx.batched_frames").Add(float64(len(frames) - 1))
		}
		if fi := t.opt.inFilter; fi != nil {
			// The filter may hold the datagram past this iteration
			// (delay/duplicate), and buf is reused — hand it a copy and
			// re-parse on delivery so the payloads alias the copy.
			data := append([]byte(nil), buf[:n]...)
			fi(frames[0].src, plane, data, func() {
				for off := 0; off < len(data); {
					f, next, err := parseFrameAt(data, off)
					if err != nil {
						return
					}
					t.receive(plane, f)
					off = next
				}
			})
			continue
		}
		for _, f := range frames {
			t.receive(plane, f)
		}
	}
}

// receive runs one parsed frame through the reliability layer and, when it
// completes a message, decodes and dispatches it. The receiving socket,
// not the sender's header, names the plane.
func (t *Transport) receive(plane int, f frame) {
	t.mu.Lock()
	up := t.up
	t.mu.Unlock()
	if !up {
		// A powered-off node neither acks nor delivers: to its peers it
		// must look dead, so their retransmissions fault the lane.
		t.reg.Counter("wire.rx.dropped").Inc()
		return
	}
	key := peerKey{f.src, plane}
	if f.flags&flagPing != 0 {
		t.reg.Counter("wire.rx.pings").Inc()
		t.pong(key)
		return
	}
	if f.flags&flagPong != 0 {
		t.reg.Counter("wire.rx.pongs").Inc()
		t.markLaneUp(key)
		return
	}
	if f.hasAck() {
		t.reg.Counter("wire.rx.acks").Inc()
		t.handleAck(key, f.ack, f.ackBits)
	}
	if !f.isData() {
		return
	}
	body := t.handleData(key, f)
	if body == nil {
		return
	}
	msg, err := decodeBody(body)
	if err != nil {
		t.reg.Counter("wire.rx.decode_errors").Inc()
		return
	}
	msg.NIC = plane
	t.dispatch(msg)
}

// decodeBody decodes a reassembled message body — the codec's binary
// envelope, with gob inside for fallback payloads. It never panics,
// whatever the bytes: a live node must survive any datagram thrown at its
// sockets, so decoder panics (possible on adversarial gob streams) are
// converted to errors.
func decodeBody(body []byte) (msg types.Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("wire: decode panic: %v", r)
		}
	}()
	return codec.Decode(body)
}

// dispatch delivers one message inside the loop.
func (t *Transport) dispatch(msg types.Message) {
	t.loop.Run(func() {
		t.mu.Lock()
		h, ok := t.handlers[msg.To]
		up := t.up
		t.mu.Unlock()
		switch {
		case !up:
			t.reg.Counter("wire.rx.dropped").Inc()
		case !ok:
			t.reg.Counter("wire.rx.no_handler").Inc()
		default:
			t.reg.Counter("wire.rx.delivered").Inc()
			t.reg.Counter("wire.rx.msgs." + msg.Type).Inc()
			h(msg)
		}
	})
}

// Close shuts the sockets down, stops every reliability timer and waits
// for the reader goroutines to drain. Pending loop callbacks may still run
// after Close; daemon-level shutdown (Host.PowerOff, Runtime.Close) is
// what guarantees they find only dead handlers.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := t.conns
	t.mu.Unlock()
	t.resetReliability()
	t.resetLaneHealth()
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
	t.wg.Wait()
}

var _ simhost.Fabric = (*Transport)(nil)
