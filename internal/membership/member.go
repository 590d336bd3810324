package membership

import (
	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/heartbeat"
	"repro/internal/rt"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Meta-group message types. The ring beat's payload is a
// heartbeat.Heartbeat; a member refutes a heartbeat.MsgSuspect notice
// about its own node the way a watch daemon does.
const (
	MsgMetaHB   = "meta.hb"   // ring heartbeat to the successor
	MsgMetaView = "meta.view" // full-view broadcast after a mutation
	MsgMetaJoin = "meta.join" // a (re)started GSD announcing itself
)

// ViewMsg broadcasts a mutated view.
type ViewMsg struct{ View *View }

// JoinMsg announces a (re)started member.
type JoinMsg struct {
	Part types.PartitionID
	Node types.NodeID
}

func init() {
	codec.Register(209, ViewMsg{})
	codec.Register(210, JoinMsg{})
}

// Callbacks notify the owning GSD about membership milestones.
type Callbacks struct {
	// OnSuspect fires when this member's monitored predecessor misses
	// its ring heartbeat deadline (detection).
	OnSuspect func(part types.PartitionID, node types.NodeID)
	// OnDiagnosed fires when the suspicion is classified as a process or
	// node fault.
	OnDiagnosed func(part types.PartitionID, node types.NodeID, kind types.FaultKind)
	// OnTakeover fires on the member responsible for recovery (the ring
	// successor of the failed slot): it must restart or migrate the
	// failed GSD.
	OnTakeover func(part types.PartitionID, failed MemberInfo, kind types.FaultKind)
	// OnJoin fires when a member (re)joins the ring.
	OnJoin func(part types.PartitionID, node types.NodeID)
	// OnLeaderChange fires when the leadership moves.
	OnLeaderChange func(leader types.PartitionID)
	// OnViewChange fires after any view adoption.
	OnViewChange func(v *View)
	// OnQuarantine fires when this member, as the slot's watcher, sets
	// (on=true) or clears a slot's flap quarantine in the view.
	OnQuarantine func(part types.PartitionID, on bool)
}

// Member is one GSD's participation in the meta-group ring. Its monitor
// watches one node: that of the current ring predecessor.
type Member struct {
	rt   rt.Runtime
	cfg  heartbeat.Config
	cb   Callbacks
	self types.PartitionID
	view *View
	mon  *heartbeat.Monitor

	pred     types.PartitionID // the predecessor under watch, on node watched
	watched  types.NodeID
	watching bool
	ticker   clock.Timer
	hb       heartbeat.Heartbeat // the ring beat; refuting a suspicion bumps Inc
}

// NewMember builds the ring participation for partition self with an
// initial view; cfg.Service is types.SvcGSD. Call Start once the daemon
// runs.
func NewMember(r rt.Runtime, cfg heartbeat.Config, self types.PartitionID, view *View, cb Callbacks) *Member {
	m := &Member{rt: r, cfg: cfg, cb: cb, self: self, view: view,
		hb: heartbeat.Heartbeat{Node: r.Node(), Interval: cfg.Interval, Boot: r.Now()}}
	m.mon = heartbeat.NewMonitor(r, cfg, heartbeat.Callbacks{
		OnSuspect: func(node types.NodeID) {
			if cb.OnSuspect != nil {
				cb.OnSuspect(m.pred, node)
			}
		},
		// A NIC verdict means the agent saw the GSD running while its
		// beats were lost: the monitor resumes watching, nothing fails.
		OnDiagnosed: func(v heartbeat.Verdict) {
			if v.Kind == types.FaultProcess || v.Kind == types.FaultNode {
				m.memberFailed(m.pred, v.Kind)
			}
		},
		OnQuarantine: func(_ types.NodeID, on bool) { m.SetQuarantined(m.pred, on) },
	})
	return m
}

// View exposes the member's current view.
func (m *Member) View() *View { return m.view }

// IsLeader reports whether this member currently leads the meta-group.
func (m *Member) IsLeader() bool { return m.view.Leader == m.self }

// Stats reports the ring monitor's lifecycle counters.
func (m *Member) Stats() heartbeat.Stats { return m.mon.Stats() }

// Start begins heartbeating and monitoring, and (for a rejoining member)
// announces itself to every peer.
func (m *Member) Start(announce bool) {
	if announce {
		join := JoinMsg{Part: m.self, Node: m.rt.Node()}
		for _, p := range m.view.Order {
			if p == m.self {
				continue
			}
			m.rt.Send(types.Addr{Node: m.view.Members[p].Node, Service: types.SvcGSD}, types.AnyNIC, MsgMetaJoin, join)
		}
		// The joiner marks itself alive locally; peers do the same on
		// receipt of the join and answer with their views if they know
		// better. Firing the view-change hooks here lets the owner sync
		// derived state (the service-federation view) to the corrected
		// membership.
		oldLeader := m.view.Leader
		m.view.MarkAlive(m.self, m.rt.Node())
		m.afterViewChange(oldLeader)
	}
	m.tick()
	m.watchPredecessor()
}

// tick beats now and again every interval until Stop.
func (m *Member) tick() {
	m.beat()
	m.ticker = m.rt.After(m.cfg.Interval, m.tick)
}

// beat sends one ring heartbeat to the successor on whichever interface
// the transport picks.
func (m *Member) beat() {
	succ, ok := m.view.Successor(m.self)
	if !ok || succ == m.self {
		return
	}
	m.hb.Seq++
	info := m.view.Members[succ]
	m.rt.Send(types.Addr{Node: info.Node, Service: types.SvcGSD}, types.AnyNIC, MsgMetaHB, m.hb)
}

// watchPredecessor points the monitor at the current predecessor's node
// and reports whether the watch moved. A moved watch starts afresh: a
// flap score stays with the watcher that counted it.
func (m *Member) watchPredecessor() bool {
	pred, ok := m.view.Predecessor(m.self)
	node := m.view.Members[pred].Node
	if ok = ok && pred != m.self; ok && m.watching && node == m.watched {
		return false
	}
	m.mon.Unwatch(m.watched)
	m.pred, m.watched, m.watching = pred, node, ok
	if ok {
		m.mon.Watch(node)
	}
	return ok
}

// memberFailed applies the failure locally, broadcasts the new view, and —
// since the detecting member is by construction the failed slot's ring
// successor — triggers the takeover callback.
func (m *Member) memberFailed(part types.PartitionID, kind types.FaultKind) {
	info := m.view.Members[part]
	if m.cb.OnDiagnosed != nil {
		m.cb.OnDiagnosed(part, info.Node, kind)
	}
	oldLeader := m.view.Leader
	m.view.MarkDead(part)
	m.broadcastView()
	m.afterViewChange(oldLeader)
	if m.cb.OnTakeover != nil {
		m.cb.OnTakeover(part, info, kind)
	}
}

// SetQuarantined flips a slot's flap-quarantine flag in the replicated
// view and broadcasts the change. The slot's watcher is the only writer:
// its monitor sets the flag when the flap score reaches the threshold and
// clears it when the score decays, and a member that takes up the watch of
// a still-quarantined slot clears it, having counted no flaps of its own.
// MarkAlive on a rejoin clears nothing.
func (m *Member) SetQuarantined(part types.PartitionID, on bool) {
	if m.view.Quarantined(part) == on {
		return
	}
	oldLeader := m.view.Leader
	m.view.SetQuarantined(part, on)
	m.broadcastView()
	if m.cb.OnQuarantine != nil {
		m.cb.OnQuarantine(part, on)
	}
	m.afterViewChange(oldLeader)
}

// broadcastView sends the view to every alive peer, in ring order: send
// order must not depend on map iteration or the simulator stops being
// repeatable per seed.
func (m *Member) broadcastView() {
	vm := ViewMsg{View: m.view.Clone()}
	for _, p := range m.view.Order {
		info := m.view.Members[p]
		if p == m.self || !info.Alive {
			continue
		}
		m.rt.Send(types.Addr{Node: info.Node, Service: types.SvcGSD}, types.AnyNIC, MsgMetaView, vm)
	}
}

func (m *Member) afterViewChange(oldLeader types.PartitionID) {
	moved := m.watchPredecessor()
	if m.view.Leader != oldLeader && m.cb.OnLeaderChange != nil {
		m.cb.OnLeaderChange(m.view.Leader)
	}
	if m.cb.OnViewChange != nil {
		m.cb.OnViewChange(m.view)
	}
	if moved {
		m.SetQuarantined(m.pred, false)
	}
}

// HandleMessage dispatches meta-group traffic; it reports whether the
// message was consumed.
func (m *Member) HandleMessage(msg types.Message) bool {
	switch msg.Type {
	case MsgMetaHB:
		if hb, ok := msg.Payload.(heartbeat.Heartbeat); ok {
			m.mon.HandleHeartbeat(hb, types.AnyNIC)
		}
		return true
	case heartbeat.MsgSuspect:
		// Refute: outbid the incarnation the suspicion was raised at and
		// beat at once. A notice below our incarnation is another NIC's
		// copy of one refuted already; a second beat at the same instant
		// would feed the watcher's accrual window a near-zero gap.
		if n, ok := msg.Payload.(heartbeat.SuspectNotice); ok && n.Node == m.rt.Node() && n.Inc >= m.hb.Inc {
			m.hb.Inc = n.Inc + 1
			m.beat()
		}
		return true
	case MsgMetaView:
		vm, ok := msg.Payload.(ViewMsg)
		if !ok || vm.View == nil {
			return true
		}
		if vm.View.Version > m.view.Version {
			oldLeader := m.view.Leader
			// Preserve our own liveness: a view that believes we are
			// dead is corrected and re-broadcast (we are demonstrably
			// alive).
			nv := vm.View.Clone()
			if !nv.Members[m.self].Alive {
				nv.MarkAlive(m.self, m.rt.Node())
				m.view = nv
				m.broadcastView()
			} else {
				m.view = nv
			}
			m.afterViewChange(oldLeader)
		}
		return true
	case MsgMetaJoin:
		jm, ok := msg.Payload.(JoinMsg)
		if !ok {
			return true
		}
		wasAlive := m.view.Alive(jm.Part)
		oldLeader := m.view.Leader
		m.view.MarkAlive(jm.Part, jm.Node)
		// Answer the joiner with our richer view so it converges.
		m.rt.Send(types.Addr{Node: jm.Node, Service: types.SvcGSD}, types.AnyNIC,
			MsgMetaView, ViewMsg{View: m.view.Clone()})
		m.afterViewChange(oldLeader)
		if !wasAlive && m.cb.OnJoin != nil {
			m.cb.OnJoin(jm.Part, jm.Node)
		}
		return true
	case simhost.MsgProbeAck:
		if ack, ok := msg.Payload.(simhost.ProbeAck); ok {
			m.mon.HandleProbeAck(ack)
		}
		// Probe acks may belong to other subsystems of the GSD; report
		// unconsumed so the partition monitor also sees them.
		return false
	}
	return false
}

// Stop halts heartbeating and monitoring (GSD shutdown).
func (m *Member) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
	m.mon.Unwatch(m.watched)
}
