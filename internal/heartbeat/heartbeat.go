// Package heartbeat implements the Phoenix kernel's failure-detection
// protocol (paper §4.3, evaluated in §5.1): watch daemons send heartbeats
// to their partition's group service daemon over every network interface;
// the GSD analyses the receipt pattern to detect failures, then diagnoses
// them by probing the node's OS agent. The GSDs' meta-group ring (package
// membership, paper Table 2) runs the same Monitor over its ring beats.
//
// Diagnosis follows the paper's three-way split:
//
//   - heartbeats missing on one NIC while arriving on others → NIC failure
//     (diagnosed by receipt-matrix analysis, microseconds);
//   - heartbeats missing on all NICs, agent answers a probe → daemon
//     process failure (diagnosed in well under a second);
//   - heartbeats missing on all NICs, agent silent until the probe timeout
//     → node failure (diagnosis cost ≈ the probe timeout).
package heartbeat

import (
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/rpc"
	"repro/internal/rt"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/wirebin"
)

// MsgHeartbeat is the WD -> GSD heartbeat message type.
const MsgHeartbeat = "wd.hb"

// MsgGSDAnnounce tells partition members where their GSD currently runs;
// a migrated GSD re-announces itself so heartbeats and detector exports
// follow it.
const MsgGSDAnnounce = "gsd.announce"

// MsgSuspect notifies a node's WD that its GSD suspects it: a live WD
// refutes by bumping its incarnation and beating immediately.
const MsgSuspect = "gsd.suspect"

// MsgIndirectProbe asks a peer WD to probe a suspect's agent through the
// peer's own interfaces (an alternate network path).
const MsgIndirectProbe = "gsd.iprobe"

// MsgIndirectAck carries a peer WD's indirect-probe answer back to the
// requesting GSD. Only positive evidence is reported; silence stays
// silence.
const MsgIndirectAck = "wd.iprobe.ack"

// MsgRejoin is a crash-restarted WD's heartbeat to a GSD that suspected
// it from a node the WD did not beat: the partition migrated while the
// node was down. The GSD takes the beat and announces itself.
const MsgRejoin = "wd.rejoin"

// MsgFenced is a WD's rejection of a stale GSD announce: the partition
// has moved on to a higher fencing epoch, and the announcing primary must
// stand down.
const MsgFenced = "wd.fenced"

// GSDAnnounce is the announce payload. Epoch is the announcing primary's
// fencing epoch: WDs follow the highest epoch they have seen and fence
// lower ones.
type GSDAnnounce struct {
	Partition types.PartitionID
	GSDNode   types.NodeID
	Epoch     uint64
}

// Heartbeat is the periodic liveness report. The boot time lets the
// monitor recognise a restarted watch daemon; the incarnation number
// (persisted in the node's state dir) rises when the node refutes a
// suspicion, so a refutation outranks the stale evidence that caused it.
type Heartbeat struct {
	Node     types.NodeID
	Seq      uint64
	Interval time.Duration
	Boot     time.Time
	Inc      uint64
}

// SuspectNotice tells a node it is under suspicion at the given
// incarnation.
type SuspectNotice struct {
	Node types.NodeID
	Inc  uint64
}

// IndirectProbeReq asks a peer WD to probe Target's agent about Service.
type IndirectProbeReq struct {
	Target  types.NodeID
	Service string
	Token   uint64
}

// IndirectProbeAck reports a peer WD's probe outcome for Target.
type IndirectProbeAck struct {
	Target  types.NodeID
	Token   uint64
	Alive   bool
	Running bool
}

// Fenced is a WD's stale-primary rejection: the WD follows Epoch, which
// is higher than the announcer's.
type Fenced struct {
	Partition types.PartitionID
	Node      types.NodeID
	Epoch     uint64
}

func init() {
	wirebin.Intern(MsgHeartbeat, MsgGSDAnnounce, MsgSuspect, MsgIndirectProbe,
		MsgIndirectAck, MsgFenced, MsgRejoin)
	codec.Register(32, Heartbeat{})
	codec.Register(33, GSDAnnounce{})
	codec.Register(34, SuspectNotice{})
	codec.Register(35, IndirectProbeReq{})
	codec.Register(36, IndirectProbeAck{})
	codec.Register(37, Fenced{})
}

// NodeStatus is the monitor's belief about one node.
type NodeStatus int

const (
	StatusHealthy NodeStatus = iota
	StatusSuspect            // heartbeats missed, diagnosis in progress
	StatusDown               // diagnosed node failure
)

func (s NodeStatus) String() string {
	switch s {
	case StatusHealthy:
		return "healthy"
	case StatusSuspect:
		return "suspect"
	case StatusDown:
		return "down"
	default:
		return "?"
	}
}

// Verdict is a completed diagnosis.
type Verdict struct {
	Node types.NodeID
	Kind types.FaultKind
	NIC  int // for FaultNIC: which interface failed
}

// Callbacks let the monitor's owner (the GSD) react to the protocol's
// milestones. Every callback runs on the simulation goroutine.
type Callbacks struct {
	// OnSuspect fires at detection time: heartbeats from the node have
	// stopped on every interface.
	OnSuspect func(node types.NodeID)
	// OnNICSuspect fires at detection time for a single silent interface
	// while others still deliver.
	OnNICSuspect func(node types.NodeID, nic int)
	// OnDiagnosed fires when a suspicion is classified.
	OnDiagnosed func(v Verdict)
	// OnRecovered fires when heartbeats resume from a node previously
	// diagnosed as failed (process or node fault).
	OnRecovered func(node types.NodeID, wasDown bool)
	// OnNICRecovered fires when a previously failed interface delivers
	// a heartbeat again.
	OnNICRecovered func(node types.NodeID, nic int)
	// OnRefuted fires when a suspect proves itself alive mid-diagnosis by
	// beating with a bumped incarnation. The node is already healthy
	// again; no fail verdict was (or will be) issued for the episode.
	OnRefuted func(node types.NodeID, inc uint64)
	// OnQuarantine fires when a node's flap score crosses the quarantine
	// threshold (on=true) or decays back below the clear level (on=false).
	OnQuarantine func(node types.NodeID, on bool)
}

// Detection constants: the paper makes only the heartbeat interval a
// system parameter.
const (
	// analysisCost models the receipt-matrix analysis that diagnoses a
	// NIC failure (paper Tables 1-2: ~350 µs).
	analysisCost = 350 * time.Microsecond
	// suspicionThreshold is the accrual suspicion level at which a miss is
	// declared: level 8 ≈ one-in-10^8 odds the node is still alive under
	// the observed arrival distribution. With a clean network the adaptive
	// deadline sits on the fixed Interval+Grace floor.
	suspicionThreshold float64 = 8
	// maxDeadlineFactor caps the adaptive deadline at this multiple of the
	// fixed deadline.
	maxDeadlineFactor = 6
	// indirectProbes is how many peers are asked to probe a suspect over
	// their own interfaces before silence escalates to a node-fail verdict.
	indirectProbes = 2
	// flapThreshold quarantines a node whose decaying flap score reaches
	// it; the node is cleared when the score falls to half of it.
	flapThreshold float64 = 3
	// flapHalfLifeBeats is the flap-score decay half-life in heartbeat
	// intervals.
	flapHalfLifeBeats = 20
)

// Config tunes the monitor.
type Config struct {
	Interval     time.Duration // expected heartbeat period
	Grace        time.Duration // slack before declaring a miss
	ProbeTimeout time.Duration // agent-probe deadline for node-fault diagnosis
	NICs         int
	// Service is the daemon under watch on each node: types.SvcWD for a
	// partition's nodes, types.SvcGSD for the meta-group ring. Suspicion
	// notices go to it, and direct and indirect probes ask about it.
	Service string
	// Peers supplies candidate indirect-probe relays (healthy partition
	// members, excluding the suspect); nil sends no indirect probes.
	Peers func(exclude types.NodeID) []types.NodeID
}

type nodeTrack struct {
	status          NodeStatus
	lastBoot        time.Time
	lastSeen        time.Time
	lastPerNIC      []time.Time
	nicDown         []bool
	deadline        clock.Timer
	diagnosing      bool
	nicCheckPending bool

	window      *arrivalWindow // inter-arrival samples
	lastSeq     uint64         // highest heartbeat seq seen
	lastArrival time.Time      // first-copy arrival time of lastSeq
	inc         uint64         // node's current incarnation
	suspectInc  uint64         // incarnation at suspicion time
	probeToken  uint64         // outstanding diagnosis probe
	flap        flapScore
	quarantined bool
}

// Stats are the monitor's lifecycle counters.
type Stats struct {
	Suspects     uint64 `json:"suspects"`
	Refutations  uint64 `json:"refutations"`
	IndirectAcks uint64 `json:"indirect_acks"`
	FailVerdicts uint64 `json:"fail_verdicts"`
}

// NodeInfo is one node's detection state in a Snapshot.
type NodeInfo struct {
	Node        types.NodeID `json:"node"`
	Status      NodeStatus   `json:"-"`
	State       string       `json:"state"`
	Inc         uint64       `json:"inc"`
	Suspicion   float64      `json:"suspicion"`
	Flap        float64      `json:"flap"`
	Quarantined bool         `json:"quarantined,omitempty"`
}

// Monitor is the GSD-side receipt tracker and diagnosis engine: for the
// nodes of one partition, or for the node of one meta-group ring
// predecessor.
type Monitor struct {
	rt      rt.Runtime
	cfg     Config
	cb      Callbacks
	pending *rpc.Pending
	nodes   map[types.NodeID]*nodeTrack
	stats   Stats
}

// NewMonitor builds a monitor; the owner must route messages to Handle,
// relayed probe answers to HandleIndirectAck and heartbeats to
// HandleHeartbeat.
func NewMonitor(r rt.Runtime, cfg Config, cb Callbacks) *Monitor {
	return &Monitor{
		rt: r, cfg: cfg, cb: cb,
		pending: rpc.NewPending(r),
		nodes:   make(map[types.NodeID]*nodeTrack),
	}
}

// Watch begins tracking a node. The first deadline allows one interval
// plus grace for the node's WD to start heartbeating.
func (m *Monitor) Watch(node types.NodeID) {
	if _, ok := m.nodes[node]; ok {
		return
	}
	tr := &nodeTrack{
		lastSeen:   m.rt.Now(),
		lastPerNIC: make([]time.Time, m.cfg.NICs),
		nicDown:    make([]bool, m.cfg.NICs),
		window:     newArrivalWindow(),
	}
	now := m.rt.Now()
	for i := range tr.lastPerNIC {
		tr.lastPerNIC[i] = now
	}
	m.nodes[node] = tr
	m.armDeadline(node, tr)
}

// MarkDown records an externally known node failure (a migrated GSD
// restoring its predecessor's partition state): the node is tracked as
// down without re-running detection, and reintegration probing applies to
// it as usual.
func (m *Monitor) MarkDown(node types.NodeID) {
	tr, ok := m.nodes[node]
	if !ok {
		m.Watch(node)
		tr = m.nodes[node]
	}
	if tr.deadline != nil {
		tr.deadline.Stop()
		tr.deadline = nil
	}
	tr.status = StatusDown
	tr.diagnosing = false
}

// Unwatch stops tracking a node and drops its state, flap score
// included; a diagnosis in flight is abandoned without a verdict.
func (m *Monitor) Unwatch(node types.NodeID) {
	tr, ok := m.nodes[node]
	if !ok {
		return
	}
	if tr.deadline != nil {
		tr.deadline.Stop()
	}
	m.pending.Cancel(tr.probeToken)
	delete(m.nodes, node)
}

// Status reports the monitor's belief about a node.
func (m *Monitor) Status(node types.NodeID) NodeStatus {
	tr, ok := m.nodes[node]
	if !ok {
		return StatusDown
	}
	return tr.status
}

// NICDown reports whether the monitor believes the node's interface is
// failed.
func (m *Monitor) NICDown(node types.NodeID, nic int) bool {
	tr, ok := m.nodes[node]
	if !ok || nic < 0 || nic >= len(tr.nicDown) {
		return false
	}
	return tr.nicDown[nic]
}

// DownNodes lists nodes currently diagnosed as failed, in node order (the
// GSD's reintegration sweep probes them in this order).
func (m *Monitor) DownNodes() []types.NodeID {
	var out []types.NodeID
	for id, tr := range m.nodes {
		if tr.status == StatusDown {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *Monitor) armDeadline(node types.NodeID, tr *nodeTrack) {
	if tr.deadline != nil {
		tr.deadline.Stop()
	}
	tr.deadline = m.rt.After(m.deadlineFor(tr), func() { m.deadlineExpired(node) })
}

// deadlineFor picks the node's miss deadline: the paper's fixed
// Interval+Grace, stretched — never shortened — by the accrual estimate
// when the observed inter-arrival distribution is noisier than the
// configured period.
func (m *Monitor) deadlineFor(tr *nodeTrack) time.Duration {
	base := m.cfg.Interval + m.cfg.Grace
	ad, ok := tr.window.deadlineFor(suspicionThreshold, m.minStd())
	if !ok || ad <= base {
		return base
	}
	if lim := maxDeadlineFactor * base; ad > lim {
		return lim
	}
	return ad
}

// minStd floors the deviation estimate so a jitter-free window cannot
// collapse the accrual model; it stays well under Grace so the fixed
// deadline remains the effective floor on clean networks.
func (m *Monitor) minStd() time.Duration {
	s := m.cfg.Grace / 8
	if s < 100*time.Microsecond {
		s = 100 * time.Microsecond
	}
	return s
}

func (m *Monitor) flapHalfLife() time.Duration {
	return flapHalfLifeBeats * m.cfg.Interval
}

// HandleHeartbeat processes one received heartbeat. nic is the interface
// it arrived on, or types.AnyNIC for a beat sent on whichever interface
// the transport picked (the meta-group ring's): such a beat carries no
// per-interface evidence, so it neither recovers nor fails a NIC.
func (m *Monitor) HandleHeartbeat(hb Heartbeat, nic int) {
	tr, ok := m.nodes[hb.Node]
	if !ok || nic < types.AnyNIC || nic >= m.cfg.NICs {
		return
	}
	now := m.rt.Now()
	perNIC := nic != types.AnyNIC

	// Accrual sampling: one inter-arrival sample per beat sequence — the
	// sibling copies a beat fans out over the other NICs must not count,
	// and a reordered duplicate of an old beat carries no new timing.
	if hb.Seq > tr.lastSeq || !hb.Boot.Equal(tr.lastBoot) {
		if tr.status == StatusHealthy && !tr.lastArrival.IsZero() {
			if gap := now.Sub(tr.lastArrival); gap > 0 {
				tr.window.add(gap)
			}
		}
		tr.lastSeq = hb.Seq
		tr.lastArrival = now
	}

	// Refutation: a suspect that beats with a bumped incarnation is alive
	// by its own word — cancel the diagnosis before any verdict and
	// restore it without a recovery event (nothing was ever marked down,
	// so no federation or shard version moves).
	if tr.diagnosing && hb.Inc > tr.suspectInc {
		m.pending.Cancel(tr.probeToken)
		tr.diagnosing = false
		tr.status = StatusHealthy
		m.stats.Refutations++
		if m.cb.OnRefuted != nil {
			m.cb.OnRefuted(hb.Node, hb.Inc)
		}
	}

	// Recovery of a previously diagnosed node/process failure.
	if tr.status != StatusHealthy && !tr.diagnosing {
		wasDown := tr.status == StatusDown
		tr.status = StatusHealthy
		// A node that was down came back with a fresh boot; clear any
		// per-NIC verdicts from before the failure.
		for i := range tr.nicDown {
			if tr.nicDown[i] {
				tr.nicDown[i] = false
			}
			tr.lastPerNIC[i] = now
		}
		if m.cb.OnRecovered != nil {
			m.cb.OnRecovered(hb.Node, wasDown)
		}
	}

	// Per-NIC recovery.
	if perNIC && tr.nicDown[nic] {
		tr.nicDown[nic] = false
		if m.cb.OnNICRecovered != nil {
			m.cb.OnNICRecovered(hb.Node, nic)
		}
	}

	// Sibling-NIC analysis (the paper's receipt-matrix analysis): a beat
	// arriving on this interface schedules a check one grace period
	// later; by then every interface that carried this beat has
	// delivered, so a sibling whose last heartbeat is older than the
	// interval missed the beat — its interface has failed. The grace
	// delay is what separates "in flight" from "missing" and keeps
	// detection at one heartbeat interval.
	if perNIC && tr.status == StatusHealthy && !tr.nicCheckPending {
		tr.nicCheckPending = true
		node := hb.Node
		m.rt.After(m.cfg.Grace, func() { m.siblingCheck(node) })
	}

	tr.lastSeen = now
	if perNIC {
		tr.lastPerNIC[nic] = now
	}
	// Incarnations only rise within one boot; a restarted WD starts a
	// fresh incarnation line (it may have no persistent state dir).
	if hb.Inc > tr.inc || !hb.Boot.Equal(tr.lastBoot) {
		tr.inc = hb.Inc
	}
	tr.lastBoot = hb.Boot
	if tr.quarantined {
		m.evalQuarantine(hb.Node, tr, now)
	}
	if tr.status == StatusHealthy {
		m.armDeadline(hb.Node, tr)
	}
}

// evalQuarantine applies the flap hysteresis: quarantine at the
// threshold, clear at half of it.
func (m *Monitor) evalQuarantine(node types.NodeID, tr *nodeTrack, now time.Time) {
	score := tr.flap.decayed(now, m.flapHalfLife())
	switch {
	case !tr.quarantined && score >= flapThreshold:
		tr.quarantined = true
		if m.cb.OnQuarantine != nil {
			m.cb.OnQuarantine(node, true)
		}
	case tr.quarantined && score <= flapThreshold/2:
		tr.quarantined = false
		if m.cb.OnQuarantine != nil {
			m.cb.OnQuarantine(node, false)
		}
	}
}

// siblingCheck runs one grace period after a heartbeat arrival and flags
// interfaces that missed the beat.
func (m *Monitor) siblingCheck(node types.NodeID) {
	tr, ok := m.nodes[node]
	if !ok {
		return
	}
	tr.nicCheckPending = false
	if tr.status != StatusHealthy {
		return
	}
	now := m.rt.Now()
	for k := 0; k < m.cfg.NICs; k++ {
		if tr.nicDown[k] || now.Sub(tr.lastPerNIC[k]) <= m.cfg.Interval {
			continue
		}
		k := k
		tr.nicDown[k] = true
		if m.cb.OnNICSuspect != nil {
			m.cb.OnNICSuspect(node, k)
		}
		m.rt.After(analysisCost, func() {
			if m.cb.OnDiagnosed != nil {
				m.cb.OnDiagnosed(Verdict{Node: node, Kind: types.FaultNIC, NIC: k})
			}
		})
	}
}

// deadlineExpired is detection: no heartbeat on any interface for a full
// interval plus grace.
func (m *Monitor) deadlineExpired(node types.NodeID) {
	tr, ok := m.nodes[node]
	if !ok || tr.status != StatusHealthy {
		return
	}
	tr.status = StatusSuspect
	tr.diagnosing = true
	tr.suspectInc = tr.inc
	m.stats.Suspects++
	now := m.rt.Now()
	tr.flap.bump(now, m.flapHalfLife())
	m.evalQuarantine(node, tr, now)
	if m.cb.OnSuspect != nil {
		m.cb.OnSuspect(node)
	}
	// Give the node itself the chance to refute: a live daemon bumps its
	// incarnation and beats back immediately.
	for nic := 0; nic < m.cfg.NICs; nic++ {
		m.rt.Send(types.Addr{Node: node, Service: m.cfg.Service}, nic,
			MsgSuspect, SuspectNotice{Node: node, Inc: tr.inc})
	}
	m.probe(node, tr)
}

// probe performs diagnosis: ProbeReq on every interface plus indirect
// probes through up to indirectProbes peer WDs; the first answer —
// direct or relayed — settles process-vs-node, silence until the timeout
// means node failure. A reply of another type is no answer and reads as
// the timeout.
func (m *Monitor) probe(node types.NodeID, tr *nodeTrack) {
	silent := func() {
		tr.diagnosing = false
		tr.status = StatusDown
		m.stats.FailVerdicts++
		if m.cb.OnDiagnosed != nil {
			m.cb.OnDiagnosed(Verdict{Node: node, Kind: types.FaultNode})
		}
	}
	token := m.pending.New(m.cfg.ProbeTimeout,
		func(payload any) {
			var running bool
			switch ack := payload.(type) {
			case simhost.ProbeAck:
				running = ack.Running
			case IndirectProbeAck:
				running = ack.Running
			default:
				silent()
				return
			}
			tr.diagnosing = false
			if running {
				// The daemon claims to run but its heartbeats do not
				// arrive: treat as a network-level fault on all
				// interfaces (not exercised by the paper's tables).
				tr.status = StatusHealthy
				m.armDeadline(node, tr)
				if m.cb.OnDiagnosed != nil {
					m.cb.OnDiagnosed(Verdict{Node: node, Kind: types.FaultNIC, NIC: types.AnyNIC})
				}
				return
			}
			// Process fault: node alive, daemon gone. Stay suspect until
			// heartbeats resume (the owner restarts the daemon).
			if m.cb.OnDiagnosed != nil {
				m.cb.OnDiagnosed(Verdict{Node: node, Kind: types.FaultProcess})
			}
		},
		silent)
	tr.probeToken = token
	for nic := 0; nic < m.cfg.NICs; nic++ {
		m.rt.Send(types.Addr{Node: node, Service: types.SvcAgent}, nic,
			simhost.MsgProbe, simhost.ProbeReq{Service: m.cfg.Service, Token: token})
	}
	if m.cfg.Peers == nil {
		return
	}
	peers := m.cfg.Peers(node)
	for i, peer := range peers {
		if i >= indirectProbes {
			break
		}
		m.rt.Send(types.Addr{Node: peer, Service: types.SvcWD}, i%m.cfg.NICs,
			MsgIndirectProbe, IndirectProbeReq{Target: node, Service: m.cfg.Service, Token: token})
	}
}

// Handle routes an agent probe ack into the diagnosis engine, reporting
// whether msg answered one of the monitor's probes (see rpc.Pending.Handle).
func (m *Monitor) Handle(msg types.Message) bool { return m.pending.Handle(msg) }

// HandleIndirectAck routes a peer WD's relayed probe answer into the
// diagnosis engine. Only positive evidence resolves the diagnosis; a
// negative relay report is silence with extra words.
func (m *Monitor) HandleIndirectAck(ack IndirectProbeAck) {
	if !ack.Alive {
		return
	}
	m.stats.IndirectAcks++
	m.pending.Resolve(ack.Token, ack)
}

// Stats reports the monitor's lifecycle counters.
func (m *Monitor) Stats() Stats { return m.stats }

// Quarantined reports whether the node is flap-quarantined.
func (m *Monitor) Quarantined(node types.NodeID) bool {
	tr, ok := m.nodes[node]
	return ok && tr.quarantined
}

// Incarnation reports the node's last seen incarnation number.
func (m *Monitor) Incarnation(node types.NodeID) uint64 {
	tr, ok := m.nodes[node]
	if !ok {
		return 0
	}
	return tr.inc
}

// Snapshot reports every watched node's detection state, ordered by
// incarnation then node.
func (m *Monitor) Snapshot() []NodeInfo {
	now := m.rt.Now()
	out := make([]NodeInfo, 0, len(m.nodes))
	for id, tr := range m.nodes {
		ni := NodeInfo{
			Node:        id,
			Status:      tr.status,
			State:       tr.status.String(),
			Inc:         tr.inc,
			Flap:        tr.flap.decayed(now, m.flapHalfLife()),
			Quarantined: tr.quarantined,
		}
		if tr.status == StatusHealthy {
			since := tr.lastArrival
			if since.IsZero() {
				since = tr.lastSeen
			}
			ni.Suspicion = tr.window.phi(now.Sub(since), m.minStd())
		}
		out = append(out, ni)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Inc != out[j].Inc {
			return out[i].Inc < out[j].Inc
		}
		return out[i].Node < out[j].Node
	})
	return out
}
