package wire

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
)

// Sentinel errors of the transport. Callers assert with errors.Is; the
// transport always returns them wrapped with lane context.
var (
	// ErrUnknownPeer marks a send whose destination has no endpoint in
	// the address book on the requested plane.
	ErrUnknownPeer = errors.New("wire: unknown peer")

	// ErrPeerUnreachable marks a lane that exhausted its retransmission
	// budget (reported through WithPeerFaultHandler) or whose send queue
	// overflowed — the transport-level signature of a dead peer.
	ErrPeerUnreachable = errors.New("wire: peer unreachable")
)

// options collects everything New can be configured with.
type options struct {
	planes   int // ephemeral mode: bind this many loopback planes
	reg      *metrics.Registry
	mtu      int
	window   int
	queueMax int
	rto      time.Duration
	rtoMax   time.Duration
	retries  int
	ackDelay time.Duration

	onPeerFault func(peer types.NodeID, plane int, err error)
	filter      OutboundFilter
	inFilter    InboundFilter
}

// Option configures a Transport at construction.
type Option func(*options)

// OutboundFilter intercepts every outbound datagram before it reaches the
// socket — the hook the lossy-fabric tests and the chaos injector use to
// drop, duplicate, delay or reorder traffic deterministically. It sits
// below the reliability layer, so each raw datagram (first transmissions
// and retransmissions alike) passes through exactly once, addressed to
// peer on plane. The filter decides the datagram's fate by calling
// transmit zero (drop), one (pass) or more (duplicate) times, possibly
// from another goroutine (delay/reorder). transmit is safe to call after
// the transport closes (the write fails and is counted).
type OutboundFilter func(peer types.NodeID, plane int, data []byte, transmit func())

// InboundFilter is the receive-side mirror of OutboundFilter: every
// well-formed datagram read from plane's socket passes through it exactly
// once — after frame parsing (malformed datagrams never reach the filter),
// before the reliability layer — addressed from peer. Dropping a datagram
// here therefore suppresses its ack, and the sender retransmits: exactly
// the behaviour of a real lossy or dead link. deliver may be called zero,
// one or more times, possibly from another goroutine; duplicate deliveries
// are absorbed by the receiver's dup suppression.
type InboundFilter func(peer types.NodeID, plane int, data []byte, deliver func())

// WithPlanes puts the transport in ephemeral mode: instead of binding the
// address book's endpoints, it binds n loopback planes on kernel-assigned
// ports — the in-process test and example path, where the book can only be
// assembled (from Endpoints) after every node has bound. Mutually
// exclusive with a non-nil book argument to New.
func WithPlanes(n int) Option { return func(o *options) { o.planes = n } }

// WithMetrics supplies the registry the transport accounts into; the
// default is a private one.
func WithMetrics(reg *metrics.Registry) Option { return func(o *options) { o.reg = reg } }

// WithMTU caps the datagram size (header included). Messages whose encoded
// body exceeds it are fragmented. The default — also the maximum — is
// 60 KiB; production clusters without jumbo frames want ~1400.
func WithMTU(bytes int) Option { return func(o *options) { o.mtu = bytes } }

// WithWindow bounds how many frames may be in flight (sent, unacked) per
// peer per plane; further frames queue in order. The default is 64.
func WithWindow(frames int) Option { return func(o *options) { o.window = frames } }

// WithRetransmit sets the retransmission policy: the base retransmission
// timeout, and how many retransmissions are attempted before the lane is
// declared unreachable. The timeout backs off exponentially per attempt,
// ceilinged at the smaller of 40×rto and 2s. The defaults are 50ms and 10.
func WithRetransmit(rto time.Duration, retries int) Option {
	return func(o *options) {
		o.rto = rto
		o.retries = retries
	}
}

// WithAckDelay sets how long the receiver waits for return traffic to
// piggyback an ack before sending one standalone. The default is 20ms; it
// must stay well below the retransmission timeout.
func WithAckDelay(d time.Duration) Option { return func(o *options) { o.ackDelay = d } }

// WithPeerFaultHandler installs the callback invoked (from a timer
// goroutine, not the Loop) when a lane exhausts its retransmission budget.
// The error wraps ErrPeerUnreachable.
func WithPeerFaultHandler(fn func(peer types.NodeID, plane int, err error)) Option {
	return func(o *options) { o.onPeerFault = fn }
}

// WithOutboundFilter installs a fault-injection filter on the send path.
func WithOutboundFilter(f OutboundFilter) Option { return func(o *options) { o.filter = f } }

// WithInboundFilter installs a fault-injection filter on the receive path.
func WithInboundFilter(f InboundFilter) Option { return func(o *options) { o.inFilter = f } }

func buildOptions(opts []Option) (options, error) {
	o := options{
		mtu:      maxFrameSize,
		window:   64,
		queueMax: 1024,
		rto:      50 * time.Millisecond,
		retries:  10,
		ackDelay: 20 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.mtu < headerSize+1 || o.mtu > maxFrameSize {
		return o, fmt.Errorf("wire: MTU %d out of range (%d..%d)", o.mtu, headerSize+1, maxFrameSize)
	}
	if o.window <= 0 {
		return o, fmt.Errorf("wire: window must be positive, got %d", o.window)
	}
	if o.rto <= 0 || o.retries <= 0 {
		return o, fmt.Errorf("wire: retransmit policy needs rto > 0 and retries > 0")
	}
	if o.ackDelay <= 0 || o.ackDelay >= o.rto {
		return o, fmt.Errorf("wire: ack delay %v must sit in (0, rto=%v)", o.ackDelay, o.rto)
	}
	o.rtoMax = 40 * o.rto
	if o.rtoMax > 2*time.Second {
		o.rtoMax = 2 * time.Second
	}
	if o.reg == nil {
		o.reg = metrics.NewRegistry()
	}
	return o, nil
}
