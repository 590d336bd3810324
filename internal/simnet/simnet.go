// Package simnet simulates the Dawning 4000A's interconnect for the Phoenix
// reproduction: every node owns several network interfaces (the paper's
// testbed had three networks per node), messages experience configurable
// latency and jitter, and individual NICs, whole nodes, network planes or
// node pairs can fail and recover under fault injection.
//
// The network delivers messages by scheduling callbacks on the simulation
// clock, so delivery order is deterministic for a fixed seed. Per-message
// byte accounting feeds the bandwidth comparisons of paper §5.4: codec.Size
// weighs each message without encoding it, into counters resolved once per
// message type and destination node.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/types"
)

// Handler consumes a delivered message. It is an alias (not a defined
// type) so that *Network satisfies the substrate-neutral simhost.Fabric
// interface, whose methods are declared against the plain func type.
type Handler = func(msg types.Message)

// Params configures the network fabric.
type Params struct {
	NICs        int           // network interfaces per node; the paper's nodes had 3
	BaseLatency time.Duration // one-way propagation+switching delay
	Jitter      time.Duration // uniform extra delay in [0, Jitter)
	// PlaneLatency overrides BaseLatency per network plane: the Dawning
	// 4000A's three networks were heterogeneous fabrics (a fast compute
	// interconnect plus slower management/backup Ethernets). Missing or
	// zero entries fall back to BaseLatency.
	PlaneLatency []time.Duration
}

// latencyFor returns the one-way delay of a plane.
func (p Params) latencyFor(nic int) time.Duration {
	if nic >= 0 && nic < len(p.PlaneLatency) && p.PlaneLatency[nic] > 0 {
		return p.PlaneLatency[nic]
	}
	return p.BaseLatency
}

// DefaultParams mirrors a gigabit-class cluster fabric: three NICs,
// 120 microseconds one-way latency with 30 microseconds of jitter, and no
// random loss (loss is injected explicitly by the fault injector).
func DefaultParams() Params {
	return Params{NICs: 3, BaseLatency: 120 * time.Microsecond, Jitter: 30 * time.Microsecond}
}

// Network is the simulated fabric. It is not safe for concurrent use; it
// lives on the single-threaded simulation goroutine.
type Network struct {
	clk    clock.Clock
	rng    *rand.Rand
	params Params
	reg    *metrics.Registry

	handlers map[types.Addr]Handler
	nicUp    map[types.NodeID][]bool
	nodeUp   map[types.NodeID]bool
	planeUp  []bool
	cuts     map[pair]bool

	// Totals resolved in New, per type and destination on first sight.
	msgs, bytes, lost, delivered *metrics.Counter
	byType                       map[string][2]*metrics.Counter // net.msgs.<type>, net.bytes.<type>
	rx                           map[types.NodeID]*metrics.Counter

	// Trace, when non-nil, observes every successfully delivered message.
	Trace func(msg types.Message)
	// Filter, when non-nil, vets every otherwise-deliverable message;
	// returning false loses it in flight. Fault injection uses it for
	// selective loss (e.g. swallowing one daemon's heartbeats while its
	// node stays reachable).
	Filter func(msg types.Message) bool
}

type pair struct{ a, b types.NodeID }

func normPair(a, b types.NodeID) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// New creates a network for the given node count.
func New(clk clock.Clock, rng *rand.Rand, nodes int, params Params, reg *metrics.Registry) *Network {
	if params.NICs <= 0 {
		params.NICs = 1
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	n := &Network{
		clk:       clk,
		rng:       rng,
		params:    params,
		reg:       reg,
		handlers:  make(map[types.Addr]Handler),
		nicUp:     make(map[types.NodeID][]bool, nodes),
		nodeUp:    make(map[types.NodeID]bool, nodes),
		planeUp:   make([]bool, params.NICs),
		cuts:      make(map[pair]bool),
		msgs:      reg.Counter("net.msgs"),
		bytes:     reg.Counter("net.bytes"),
		lost:      reg.Counter("net.lost"),
		delivered: reg.Counter("net.delivered"),
		byType:    make(map[string][2]*metrics.Counter),
		rx:        make(map[types.NodeID]*metrics.Counter, nodes),
	}
	for i := range n.planeUp {
		n.planeUp[i] = true
	}
	for i := 0; i < nodes; i++ {
		id := types.NodeID(i)
		up := make([]bool, params.NICs)
		for k := range up {
			up[k] = true
		}
		n.nicUp[id] = up
		n.nodeUp[id] = true
	}
	return n
}

// Params returns the network's configuration.
func (n *Network) Params() Params { return n.params }

// Metrics exposes the registry the network accounts into.
func (n *Network) Metrics() *metrics.Registry { return n.reg }

// Register binds a handler to an address. Registering an already-bound
// address replaces the handler (a restarted daemon reclaims its address).
func (n *Network) Register(addr types.Addr, h Handler) {
	if h == nil {
		panic("simnet: nil handler for " + addr.String())
	}
	n.handlers[addr] = h
}

// Unregister removes the binding for addr, if any.
func (n *Network) Unregister(addr types.Addr) {
	delete(n.handlers, addr)
}

// Registered reports whether a handler is bound at addr.
func (n *Network) Registered(addr types.Addr) bool {
	_, ok := n.handlers[addr]
	return ok
}

// SetNodeUp powers a node's network presence on or off. A down node can
// neither send nor receive on any NIC.
func (n *Network) SetNodeUp(id types.NodeID, up bool) { n.nodeUp[id] = up }

// NodeUp reports whether the node is powered as far as the fabric knows.
func (n *Network) NodeUp(id types.NodeID) bool { return n.nodeUp[id] }

// SetNICUp fails or restores one interface of one node.
func (n *Network) SetNICUp(id types.NodeID, nic int, up bool) error {
	states, ok := n.nicUp[id]
	if !ok || nic < 0 || nic >= len(states) {
		return fmt.Errorf("simnet: no NIC %d on %v", nic, id)
	}
	states[nic] = up
	return nil
}

// NICUp reports whether the given interface of the node is healthy.
func (n *Network) NICUp(id types.NodeID, nic int) bool {
	states, ok := n.nicUp[id]
	if !ok || nic < 0 || nic >= len(states) {
		return false
	}
	return states[nic]
}

// SetPlaneUp fails or restores an entire network plane (all traffic on one
// NIC index across the cluster).
func (n *Network) SetPlaneUp(nic int, up bool) error {
	if nic < 0 || nic >= len(n.planeUp) {
		return fmt.Errorf("simnet: no plane %d", nic)
	}
	n.planeUp[nic] = up
	return nil
}

// Cut severs (or restores, with sever=false) all traffic between two nodes
// on every plane — a cable-pull or switch-partition style fault.
func (n *Network) Cut(a, b types.NodeID, sever bool) {
	p := normPair(a, b)
	if sever {
		n.cuts[p] = true
	} else {
		delete(n.cuts, p)
	}
}

// pathOK reports whether plane nic currently connects from → to.
func (n *Network) pathOK(from, to types.NodeID, nic int) bool {
	return n.planeUp[nic] &&
		n.NICUp(from, nic) && n.NICUp(to, nic) &&
		!n.cuts[normPair(from, to)]
}

// Send transmits a message. Local failures (source node down, bad NIC
// request) return an error; in-flight losses are silent, as on a real
// datagram fabric. A message with NIC == types.AnyNIC uses the first plane
// that currently connects source and destination.
func (n *Network) Send(msg types.Message) error {
	if !n.nodeUp[msg.From.Node] {
		return fmt.Errorf("simnet: source %v is down", msg.From.Node)
	}
	nic := msg.NIC
	if nic == types.AnyNIC {
		nic = -1
		for k := 0; k < n.params.NICs; k++ {
			if n.pathOK(msg.From.Node, msg.To.Node, k) {
				nic = k
				break
			}
		}
		if nic == -1 {
			// No usable plane: the datagram leaves on NIC 0 (if the
			// sender still has it) and is lost in flight.
			if !n.NICUp(msg.From.Node, 0) {
				return fmt.Errorf("simnet: no usable NIC on %v", msg.From.Node)
			}
			n.account(msg, false)
			return nil
		}
	} else if nic < 0 || nic >= n.params.NICs {
		return fmt.Errorf("simnet: invalid NIC %d", nic)
	}
	msg.NIC = nic
	msg.Sent = n.clk.Now()

	deliverable := n.pathOK(msg.From.Node, msg.To.Node, nic) && n.nodeUp[msg.From.Node]
	if deliverable && n.Filter != nil && !n.Filter(msg) {
		deliverable = false
	}
	n.account(msg, deliverable)
	if !deliverable {
		// The sender's NIC must at least be up to put bits on the wire;
		// otherwise the send fails locally.
		if !n.NICUp(msg.From.Node, nic) {
			return fmt.Errorf("simnet: NIC %d on %v is down", nic, msg.From.Node)
		}
		return nil
	}

	delay := n.params.latencyFor(nic)
	if n.params.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.params.Jitter)))
	}
	m := msg
	n.clk.AfterFunc(delay, func() { n.deliver(m) })
	return nil
}

func (n *Network) deliver(msg types.Message) {
	// Conditions may have changed in flight.
	if !n.nodeUp[msg.To.Node] || !n.pathOK(msg.From.Node, msg.To.Node, msg.NIC) {
		n.reg.Counter("net.dropped_in_flight").Inc()
		return
	}
	h, ok := n.handlers[msg.To]
	if !ok {
		n.reg.Counter("net.no_handler").Inc()
		return
	}
	if n.Trace != nil {
		n.Trace(msg)
	}
	n.delivered.Inc()
	// Per-destination accounting lets experiments find the busiest node
	// (the scalability ablation compares the partitioned design against a
	// flat master, whose receive rate grows with the cluster).
	rx, ok := n.rx[msg.To.Node]
	if !ok {
		rx = n.reg.Counter("net.rx." + msg.To.Node.String())
		n.rx[msg.To.Node] = rx
	}
	rx.Inc()
	h(msg)
}

func (n *Network) account(msg types.Message, deliverable bool) {
	size := float64(codec.Size(msg))
	tc, ok := n.byType[msg.Type]
	if !ok {
		tc = [2]*metrics.Counter{n.reg.Counter("net.msgs." + msg.Type), n.reg.Counter("net.bytes." + msg.Type)}
		n.byType[msg.Type] = tc
	}
	n.msgs.Inc()
	n.bytes.Add(size)
	tc[0].Inc()
	tc[1].Add(size)
	if !deliverable {
		n.lost.Inc()
	}
}
