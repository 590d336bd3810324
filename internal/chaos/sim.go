package chaos

import (
	"repro/internal/clock"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/types"
)

// SimApplier replays a scenario inside the discrete-event simulator: the
// virtual-time counterpart of Runner. Where a Runner reconfigures one
// node's real-socket injector from that node's point of view, the applier
// owns the whole simulated network and acts for every node at once: a
// partition step severs every cross-group pair, a nic-down without node=
// takes the plane down cluster-wide, and the rule steps (drop, dup,
// delay, slow, clear) reach one Injector per simulated node — the rule
// engine, lane streams and seed phoenix-node -chaos runs, with a message
// passing its sender's injector outbound, then its receiver's inbound.
type SimApplier struct {
	schedule
	net *simnet.Network
	// kill is invoked with the node a kill step without svc= names; nil
	// ignores such kills.
	kill func(types.NodeID)

	// Host resolves the node of a kill step with svc=; nil ignores such
	// kills.
	Host func(types.NodeID) *simhost.Host
	// Trace, when non-nil, receives every decision of every node's
	// injector. Set it before the first rule step fires.
	Trace func(node types.NodeID, act Action)

	seed  int64
	injs  []*Injector // one per node, made when the first rule step fires
	cuts  [][2]types.NodeID
	downs []Step // nic-down steps a heal undoes
}

// NewSimApplier builds an applier for one simulated network. clk is the
// simulation clock the steps are scheduled on.
func NewSimApplier(clk clock.Clock, net *simnet.Network, kill func(types.NodeID)) *SimApplier {
	return &SimApplier{schedule: schedule{clk: clk}, net: net, kill: kill, seed: 1}
}

// Run schedules every step of the scenario relative to now on the sim
// clock, under the scenario's seed; advancing the engine fires them. Use
// Stop to cancel the steps still pending.
func (a *SimApplier) Run(sc *Scenario) {
	a.seed = sc.Seed
	a.replay(sc, a.Apply)
}

// Apply executes one step immediately.
func (a *SimApplier) Apply(st Step) {
	switch st.Op {
	case "nic-down", "nic-up":
		a.setNIC(st, st.Op == "nic-up")
		if st.Op == "nic-down" {
			a.downs = append(a.downs, st)
		}
	case "partition":
		for i, g := range st.Groups {
			for _, other := range st.Groups[i+1:] {
				for _, x := range g {
					for _, y := range other {
						a.net.Cut(x, y, true)
						a.cuts = append(a.cuts, [2]types.NodeID{x, y})
					}
				}
			}
		}
	case "heal":
		// Injector.Heal's meaning, for every node: cuts lifted, planes and
		// NICs back up, fault rules cleared.
		for _, c := range a.cuts {
			a.net.Cut(c[0], c[1], false)
		}
		for _, down := range a.downs {
			a.setNIC(down, true)
		}
		a.cuts, a.downs = nil, nil
		for _, inj := range a.injs {
			inj.Heal()
		}
	case "kill":
		switch {
		case int(st.Node) >= a.net.Nodes():
			// No such node acts on it, as on the wire.
		case st.Svc != "" && a.Host != nil:
			_ = a.Host(st.Node).Kill(st.Svc) // a service already dead stays dead
		case st.Svc == "" && a.kill != nil:
			a.kill(st.Node)
		}
	case "drop", "dup", "delay", "slow", "clear":
		for _, inj := range a.injectors() {
			applyRule(inj, st)
		}
	}
}

// setNIC fails or restores a nic step's plane on its node, or on the
// whole network when the step names no node.
func (a *SimApplier) setNIC(st Step, up bool) {
	if st.Node == AnyPeer {
		_ = a.net.SetPlaneUp(st.Plane, up)
	} else {
		_ = a.net.SetNICUp(st.Node, st.Plane, up)
	}
}

// injectors returns one injector per node, making them and installing
// the network filter on first use: a scenario without rule steps leaves
// the fabric untouched.
func (a *SimApplier) injectors() []*Injector {
	if a.injs != nil {
		return a.injs
	}
	a.injs = make([]*Injector, a.net.Nodes())
	for i := range a.injs {
		inj, node := New(a.seed, a.clk), types.NodeID(i)
		if a.Trace != nil {
			inj.Trace = func(act Action) { a.Trace(node, act) }
		}
		a.injs[i] = inj
	}
	a.net.Filter = func(msg types.Message, deliver func()) {
		from, to := msg.From.Node, msg.To.Node
		a.injs[from].run(laneKey{peer: to, plane: msg.NIC, dir: DirOut}, func() {
			a.injs[to].run(laneKey{peer: from, plane: msg.NIC, dir: DirIn}, deliver)
		})
	}
	return a.injs
}
