package membership

import (
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/heartbeat"
	"repro/internal/rt"
	"repro/internal/simhost"
	"repro/internal/types"
)

// Meta-group message types.
const (
	MsgMetaHB   = "meta.hb"   // ring heartbeat to the successor
	MsgMetaView = "meta.view" // full-view broadcast after a mutation
	MsgMetaJoin = "meta.join" // a (re)started GSD announcing itself
)

// MetaHB is the ring heartbeat payload.
type MetaHB struct {
	Part    types.PartitionID
	Version uint64
}

// ViewMsg broadcasts a mutated view.
type ViewMsg struct{ View *View }

// JoinMsg announces a (re)started member.
type JoinMsg struct {
	Part types.PartitionID
	Node types.NodeID
}

func init() {
	codec.Register(208, MetaHB{})
	codec.Register(209, ViewMsg{})
	codec.Register(210, JoinMsg{})
}

// Config tunes the meta-group protocol. The meta probe timeout is tighter
// than partition monitoring (paper Table 2: GSD node diagnosis ≈ 0.3 s
// versus Table 1's 2 s).
type Config struct {
	Interval     time.Duration
	Grace        time.Duration
	ProbeTimeout time.Duration
	NICs         int
}

// Callbacks notify the owning GSD about membership milestones.
type Callbacks struct {
	// OnSuspect fires when this member's monitored predecessor misses
	// its ring heartbeat deadline (detection).
	OnSuspect func(part types.PartitionID, node types.NodeID)
	// OnDiagnosed fires when the suspicion is classified.
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
}

// Member is one GSD's participation in the meta-group ring.
type Member struct {
	rt     rt.Runtime
	cfg    Config
	cb     Callbacks
	self   types.PartitionID
	view   *View
	prober *heartbeat.Prober

	monitored  types.PartitionID // current predecessor under watch
	hasMon     bool
	deadline   clock.Timer
	ticker     *clock.Ticker
	diagnosing bool
}

// NewMember builds the ring participation for partition self with an
// initial view. Call Start once the daemon runs.
func NewMember(r rt.Runtime, cfg Config, self types.PartitionID, view *View, cb Callbacks) *Member {
	return &Member{
		rt: r, cfg: cfg, cb: cb, self: self, view: view,
		prober: heartbeat.NewProber(r, cfg.NICs),
	}
}

// View exposes the member's current view.
func (m *Member) View() *View { return m.view }

// Self reports the member's partition.
func (m *Member) Self() types.PartitionID { return m.self }

// IsLeader reports whether this member currently leads the meta-group.
func (m *Member) IsLeader() bool { return m.view.Leader == m.self }

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
	m.beat()
	m.ticker = clock.NewTicker(rtClock{m.rt}, m.cfg.Interval, m.beat)
	m.rearmMonitor()
}

// rtClock adapts rt.Runtime to clock.Clock for tickers.
type rtClock struct{ r rt.Runtime }

func (c rtClock) Now() time.Time { return c.r.Now() }
func (c rtClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	return c.r.After(d, f)
}

func (m *Member) beat() {
	succ, ok := m.view.Successor(m.self)
	if !ok || succ == m.self {
		return
	}
	info := m.view.Members[succ]
	m.rt.Send(types.Addr{Node: info.Node, Service: types.SvcGSD}, types.AnyNIC,
		MsgMetaHB, MetaHB{Part: m.self, Version: m.view.Version})
}

// rearmMonitor points the deadline at the current predecessor.
func (m *Member) rearmMonitor() {
	if m.deadline != nil {
		m.deadline.Stop()
		m.deadline = nil
	}
	pred, ok := m.view.Predecessor(m.self)
	if !ok || pred == m.self {
		m.hasMon = false
		return
	}
	m.monitored = pred
	m.hasMon = true
	m.deadline = m.rt.After(m.cfg.Interval+m.cfg.Grace, m.predecessorMissed)
}

func (m *Member) predecessorMissed() {
	if !m.hasMon || m.diagnosing {
		return
	}
	part := m.monitored
	info := m.view.Members[part]
	if !info.Alive {
		m.rearmMonitor()
		return
	}
	m.diagnosing = true
	if m.cb.OnSuspect != nil {
		m.cb.OnSuspect(part, info.Node)
	}
	m.prober.Probe(info.Node, types.SvcGSD, m.cfg.ProbeTimeout, func(res heartbeat.ProbeResult) {
		m.diagnosing = false
		if res.NodeAlive && res.ServiceRunning {
			// False alarm (heartbeats delayed); resume monitoring.
			m.rearmMonitor()
			return
		}
		kind := types.FaultNode
		if res.NodeAlive {
			kind = types.FaultProcess
		}
		if m.cb.OnDiagnosed != nil {
			m.cb.OnDiagnosed(part, info.Node, kind)
		}
		m.memberFailed(part, info, kind)
	})
}

// memberFailed applies the failure locally, broadcasts the new view, and —
// since the detecting member is by construction the failed slot's ring
// successor — triggers the takeover callback.
func (m *Member) memberFailed(part types.PartitionID, info MemberInfo, kind types.FaultKind) {
	oldLeader := m.view.Leader
	m.view.MarkDead(part)
	m.broadcastView()
	m.afterViewChange(oldLeader)
	if m.cb.OnTakeover != nil {
		m.cb.OnTakeover(part, info, kind)
	}
}

// SetQuarantined flips a slot's flap-quarantine flag in the replicated
// view and broadcasts the change. MarkAlive on a rejoin clears nothing —
// quarantine outlives restarts by design — so only the flap-score decay
// path should call this with on=false.
func (m *Member) SetQuarantined(part types.PartitionID, on bool) {
	if m.view.Quarantined(part) == on {
		return
	}
	oldLeader := m.view.Leader
	m.view.SetQuarantined(part, on)
	m.broadcastView()
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
	m.rearmMonitor()
	if m.view.Leader != oldLeader && m.cb.OnLeaderChange != nil {
		m.cb.OnLeaderChange(m.view.Leader)
	}
	if m.cb.OnViewChange != nil {
		m.cb.OnViewChange(m.view)
	}
}

// HandleMessage dispatches meta-group traffic; it reports whether the
// message was consumed.
func (m *Member) HandleMessage(msg types.Message) bool {
	switch msg.Type {
	case MsgMetaHB:
		hb, ok := msg.Payload.(MetaHB)
		if !ok {
			return true
		}
		if m.hasMon && hb.Part == m.monitored && !m.diagnosing {
			m.rearmMonitor()
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
			m.prober.HandleProbeAck(ack)
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
	if m.deadline != nil {
		m.deadline.Stop()
	}
	m.hasMon = false
}
