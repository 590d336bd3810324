// Package gsd implements the Phoenix group service daemon, the kernel
// component that solves "scalability and high availability at the same
// time" (paper §4.2-4.4). A GSD takes charge of one partition:
//
//   - it receives and analyses the heartbeats of the partition's watch
//     daemons, diagnosing process, node and network-interface failures and
//     driving their recovery;
//   - it participates in the ring-structured meta-group of all GSDs
//     (Leader/Princess succession, mutual monitoring, takeover);
//   - it supervises the kernel service instances co-located with it (event
//     service, data bulletin, checkpoint service), restarting them on
//     process death and carrying them along when it migrates to a backup
//     node after a server-node death;
//   - acting as an event supplier, it publishes failure and recovery
//     events through the event service.
package gsd

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/config"
	"repro/internal/detector"
	"repro/internal/events"
	"repro/internal/federation"
	"repro/internal/heartbeat"
	"repro/internal/membership"
	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/watchd"
)

// SpawnSpec is what travels in a remote GSD spawn request (takeover or
// migration); node-local factories combine it with their captured topology
// and parameters.
type SpawnSpec struct {
	Partition types.PartitionID
	View      *membership.View
	Migrated  bool
	// Epoch is a fencing-epoch floor for the spawned instance; the
	// instance still restores (and outbids) its predecessor's
	// checkpointed epoch.
	Epoch uint64
}

func init() { codec.Register(192, SpawnSpec{}) }

// ServiceSpawnSpec travels in remote spawn requests for the partition
// kernel services (es/db/ckpt) so a migrated instance knows to restore.
type ServiceSpawnSpec struct {
	Partition types.PartitionID
	View      federation.View
	Restart   bool
}

func init() { codec.Register(193, ServiceSpawnSpec{}) }

// Spec configures a GSD.
type Spec struct {
	Partition types.PartitionID
	Topo      *config.Topology
	Params    config.Params
	// View is the meta-group view to start from; nil derives the boot
	// view from the topology.
	View *membership.View
	// Migrated marks a GSD spawned by a takeover: it announces itself to
	// the meta-group and to its partition, and restarts missing local
	// services in recovery mode.
	Migrated bool
	// OnStart, when set, runs as the daemon begins executing (after its
	// exec latency) — the kernel uses it to track the current live GSD
	// per partition. Registering at construction would leak handles to
	// daemons whose duplicate spawn was rejected.
	OnStart func(*Daemon)
	// Extra lists additional co-located services this GSD supervises
	// beyond the kernel trio — the paper's "scheduling service group":
	// PWS registers itself here to get restart and migration for free.
	Extra []string
	// RPC carries the node-wide resilient-call options (shared breakers,
	// metrics); the daemon fills per-client budgets and failover peers.
	RPC rpc.Options
	// Epoch is the fencing-epoch floor carried by the spawn request.
	Epoch uint64
}

// Daemon is the group service daemon process.
type Daemon struct {
	spec Spec
	h    *simhost.Handle

	mon        *heartbeat.Monitor
	member     *membership.Member
	reinProber *heartbeat.Prober
	pending    *rpc.Pending
	ckpt       *checkpoint.Client

	fedView federation.View

	// localSvcs are the kernel services supervised on this node.
	localSvcs []string
	// recovering maps local services being restarted to a deadline that
	// suppresses re-detection; a restart that never reports ready (the
	// new process was killed mid-exec) expires and the periodic check
	// retries.
	recovering map[string]time.Time
	// wdRespawning marks partition nodes whose WD restart is in flight.
	wdRespawning map[types.NodeID]bool
	// reintegrating marks down nodes currently being probed/re-seeded.
	reintegrating map[types.NodeID]bool
	// takeoverPending maps partitions whose recovery this member drives
	// to a deadline: their rejoin produces the member-recover event here,
	// and an attempt that produces no rejoin by the deadline (for
	// example the respawned daemon was killed mid-exec) expires so the
	// dead-slot sweep retries.
	takeoverPending map[types.PartitionID]time.Time
	// standingDown marks a GSD that discovered a live peer instance owning
	// its partition slot and is exiting.
	standingDown bool
	// epoch is this instance's fencing epoch: monotonic per partition,
	// persisted in the checkpointed partition state, bumped on every
	// migration. WDs follow the highest epoch they have seen and fence
	// announces below it.
	epoch uint64
	// takeovers counts the GSD spawns this member has driven for failed
	// peer partitions (the migration counter the detection soak asserts
	// stays zero under pure packet loss).
	takeovers uint64
}

// New builds a GSD.
func New(spec Spec) *Daemon {
	// The gossip instance is a supervised partition service like the other
	// three: restarted by the local check, migrated with the GSD, fed the
	// federation view by syncFedView.
	localSvcs := append([]string{types.SvcES, types.SvcDB, types.SvcCkpt}, spec.Extra...)
	localSvcs = append(localSvcs, types.SvcGossip)
	return &Daemon{
		spec:            spec,
		localSvcs:       localSvcs,
		recovering:      make(map[string]time.Time),
		wdRespawning:    make(map[types.NodeID]bool),
		reintegrating:   make(map[types.NodeID]bool),
		takeoverPending: make(map[types.PartitionID]time.Time),
	}
}

// Service implements simhost.Process.
func (g *Daemon) Service() string { return types.SvcGSD }

// Monitor exposes the partition monitor (read-only observability).
func (g *Daemon) Monitor() *heartbeat.Monitor { return g.mon }

// Member exposes the meta-group membership (read-only observability).
func (g *Daemon) Member() *membership.Member { return g.member }

// Partition reports which partition this GSD is in charge of.
func (g *Daemon) Partition() types.PartitionID { return g.spec.Partition }

// FederationView exposes the current service-federation view.
func (g *Daemon) FederationView() federation.View { return g.fedView }

// Epoch reports this instance's fencing epoch.
func (g *Daemon) Epoch() uint64 { return g.epoch }

// Takeovers reports how many peer-partition GSD spawns this member drove.
func (g *Daemon) Takeovers() uint64 { return g.takeovers }

// Start implements simhost.Process.
func (g *Daemon) Start(h *simhost.Handle) {
	g.h = h
	p := g.spec.Params
	if g.spec.OnStart != nil {
		g.spec.OnStart(g)
	}

	view := g.spec.View
	if view == nil {
		placement := make(map[types.PartitionID]types.NodeID)
		for _, part := range g.spec.Topo.Partitions {
			placement[part.ID] = part.Server
		}
		view = membership.NewView(placement)
	} else {
		view = view.Clone()
	}

	g.pending = rpc.NewPending(h)
	g.reinProber = heartbeat.NewProber(h, g.spec.Topo.NICs)
	// Checkpoint calls go to the co-located instance first, with the rest
	// of the checkpoint federation as failover targets for retries.
	ckptOpts := g.spec.RPC.WithBudget(p.RPCTimeout).WithPeers(func() []types.Addr {
		return g.fedView.PeerAddrs(g.spec.Partition, types.SvcCkpt)
	})
	g.ckpt = checkpoint.NewClient(h, ckptOpts, func() (types.Addr, bool) {
		return types.Addr{Node: h.Node(), Service: types.SvcCkpt}, true
	})

	g.mon = heartbeat.NewMonitor(h, heartbeat.Config{
		Interval:     p.HeartbeatInterval,
		Grace:        p.HeartbeatGrace,
		ProbeTimeout: p.PartitionProbeTimeout,
		NICs:         g.spec.Topo.NICs,
		Service:      types.SvcWD,
		Peers:        g.indirectPeers,
	}, heartbeat.Callbacks{
		OnSuspect:      g.onNodeSuspect,
		OnNICSuspect:   g.onNICSuspect,
		OnDiagnosed:    g.onPartitionDiagnosed,
		OnRecovered:    g.onNodeRecovered,
		OnNICRecovered: g.onNICRecovered,
		OnRefuted:      g.onNodeRefuted,
		OnQuarantine: func(node types.NodeID, on bool) {
			g.publishQuarantine(types.Event{Node: node}, on)
		},
	})

	// The ring monitor: the same detector at the meta-group's cadence and
	// probe timeout (paper Table 2), without indirect probes.
	g.member = membership.NewMember(h, heartbeat.Config{
		Interval:     p.MetaHeartbeatInterval,
		Grace:        p.HeartbeatGrace,
		ProbeTimeout: p.MetaProbeTimeout,
		NICs:         g.spec.Topo.NICs,
		Service:      types.SvcGSD,
	}, g.spec.Partition, view, membership.Callbacks{
		OnSuspect:    g.onMemberSuspect,
		OnDiagnosed:  g.onMemberDiagnosed,
		OnTakeover:   g.onTakeover,
		OnJoin:       g.onMemberJoin,
		OnViewChange: g.onViewChange,
		OnQuarantine: func(part types.PartitionID, on bool) {
			g.publishQuarantine(types.Event{Service: types.SvcGSD, Detail: part.String()}, on)
		},
	})

	g.syncFedView(g.member.View())

	// Watch every node of the partition.
	part, _ := g.spec.Topo.Partition(g.spec.Partition)
	for _, n := range part.Members {
		g.mon.Watch(n)
	}

	// Fencing epoch: at least the spawn request's floor and the view
	// version at start — a takeover always follows a MarkDead version
	// bump, so a migrated instance outbids its predecessor even before
	// the checkpointed epoch is restored.
	g.epoch = g.spec.Epoch
	if v := view.Version; v > g.epoch {
		g.epoch = v
	}
	if g.epoch == 0 {
		g.epoch = 1
	}

	// Tell the partition where its GSD lives (WDs and detectors follow).
	g.announcePartition()

	// Local service supervision: the periodic check (one heartbeat
	// interval, paper Table 3) detects exits.
	h.Every(p.LocalCheckPeriod, g.localCheck)

	// Reintegration sweep: probe nodes diagnosed down and re-seed their
	// daemons when they answer again.
	h.Every(p.HeartbeatInterval, g.reintegrationSweep)
	h.Every(p.MetaHeartbeatInterval+p.MetaHeartbeatInterval/2, g.deadSlotSweep)

	if g.spec.Migrated {
		// Migration path: bring the partition services up on this node,
		// restore the predecessor's partition state from the checkpoint
		// federation, then announce to the meta-group.
		g.ensureLocalServices(true)
		g.restorePartitionState(func() {
			// The restored epoch may outbid the provisional one; persist
			// and re-announce so every WD follows the final epoch.
			g.checkpointPartitionState()
			g.announcePartition()
			g.member.Start(true)
			g.publishSupplierRegistration()
		})
		return
	}
	g.member.Start(false)

	// Register as an event supplier (paper: the GSD "acts as an event
	// supplier").
	g.publishSupplierRegistration()
}

// OnStop implements simhost.Process.
func (g *Daemon) OnStop() {
	g.member.Stop()
}

// Receive implements simhost.Process.
func (g *Daemon) Receive(msg types.Message) {
	// Tokens are process-unique, so only the issuing table resolves a
	// reply: the spawn table, the partition monitor, the reintegration
	// prober, the checkpoint client, or (inside HandleMessage) the ring
	// member's monitor.
	if g.pending.Handle(msg) || g.mon.Handle(msg) || g.reinProber.Handle(msg) ||
		(g.ckpt != nil && g.ckpt.Handle(msg)) {
		return
	}
	if g.member.HandleMessage(msg) {
		return
	}
	switch msg.Type {
	case heartbeat.MsgHeartbeat:
		if hb, ok := msg.Payload.(heartbeat.Heartbeat); ok {
			g.mon.HandleHeartbeat(hb, msg.NIC)
		}
	case heartbeat.MsgRejoin:
		// A crash-restarted member beats the GSD its topology names; the
		// beat refutes our suspicion, the announce redirects its WD and
		// detector here and re-admits it.
		if hb, ok := msg.Payload.(heartbeat.Heartbeat); ok {
			if ni, ok := g.spec.Topo.Node(hb.Node); ok && ni.Partition == g.spec.Partition {
				g.mon.HandleHeartbeat(hb, msg.NIC)
				g.announceTo(hb.Node)
			}
		}
	case heartbeat.MsgIndirectAck:
		if ack, ok := msg.Payload.(heartbeat.IndirectProbeAck); ok {
			g.mon.HandleIndirectAck(ack)
		}
	case heartbeat.MsgFenced:
		// A WD follows a higher fencing epoch than ours: this instance is
		// the stale primary of a partition that has moved on. Stand down
		// deterministically instead of racing the replacement.
		if f, ok := msg.Payload.(heartbeat.Fenced); ok &&
			f.Partition == g.spec.Partition && f.Epoch > g.epoch && !g.standingDown {
			g.standingDown = true
			g.h.After(0, g.standDown)
		}
	case events.MsgReady:
		if rm, ok := msg.Payload.(events.ReadyMsg); ok {
			g.onServiceReady(rm.Service)
		}
	}
}

// --- event publication ----------------------------------------------------

// esTarget picks the event-service instance to publish through: the local
// instance when it runs, otherwise the nearest alive peer of the
// federation — this is what keeps failure events flowing when the local ES
// itself is the failed component.
func (g *Daemon) esTarget() (types.Addr, bool) {
	if g.h.Host().Running(types.SvcES) {
		return types.Addr{Node: g.h.Node(), Service: types.SvcES}, true
	}
	peers := g.fedView.PeerAddrs(g.spec.Partition, types.SvcES)
	if len(peers) > 0 {
		return peers[0], true
	}
	return types.Addr{}, false
}

func (g *Daemon) publish(ev types.Event) {
	ev.Partition = g.spec.Partition
	ev.When = g.h.Now()
	if addr, ok := g.esTarget(); ok {
		g.h.Send(addr, types.AnyNIC, events.MsgPublish, events.PubReq{Event: ev})
	}
}

func (g *Daemon) publishSupplierRegistration() {
	if addr, ok := g.esTarget(); ok {
		g.h.Send(addr, types.AnyNIC, events.MsgSupplier, events.SupplierReq{
			Supplier: g.h.Self(),
			Types: []types.EventType{
				types.EvNodeSuspect, types.EvNodeFail, types.EvNodeRecover,
				types.EvNetSuspect, types.EvNetFail, types.EvNetRecover,
				types.EvProcFail, types.EvProcRecover,
				types.EvServiceSuspect, types.EvServiceFail, types.EvServiceRecover,
				types.EvMemberSuspect, types.EvMemberFail, types.EvMemberRecover,
			},
		})
	}
}

// --- partition announcements and federation view ---------------------------

func (g *Daemon) announcePartition() {
	part, ok := g.spec.Topo.Partition(g.spec.Partition)
	if !ok {
		return
	}
	for _, n := range part.Members {
		g.announceTo(n)
	}
}

// announceTo tells one node's WD and detector where this partition's GSD
// runs — the targeted form of announcePartition, used when re-admitting a
// crash-restarted node whose daemons may still be addressing a predecessor
// GSD (the announce both redirects their heartbeats and tells the node its
// re-admission is under way).
func (g *Daemon) announceTo(node types.NodeID) {
	ann := heartbeat.GSDAnnounce{Partition: g.spec.Partition, GSDNode: g.h.Node(), Epoch: g.epoch}
	g.h.Send(types.Addr{Node: node, Service: types.SvcWD}, types.AnyNIC, heartbeat.MsgGSDAnnounce, ann)
	g.h.Send(types.Addr{Node: node, Service: types.SvcDetector}, types.AnyNIC, heartbeat.MsgGSDAnnounce, ann)
}

// syncFedView mirrors the membership view into the service-federation view
// and pushes it to the local service instances.
func (g *Daemon) syncFedView(v *membership.View) {
	fv := federation.View{Version: v.Version, Entries: make(map[types.PartitionID]federation.Entry)}
	for _, p := range v.Order {
		m := v.Members[p]
		fv.Entries[p] = federation.Entry{Node: m.Node, Alive: m.Alive, Quarantined: m.Quarantined}
	}
	g.fedView = fv
	for _, svc := range g.localSvcs {
		g.h.Send(types.Addr{Node: g.h.Node(), Service: svc}, types.AnyNIC,
			federation.MsgView, federation.ViewMsg{View: fv.Clone()})
	}
}

func (g *Daemon) onViewChange(v *membership.View) {
	g.syncFedView(v)
	// Supersession guard: a crash-restarted node can race the takeover
	// machinery into producing two GSD instances for one partition (e.g. a
	// rejoin fallback spawn concurrent with a migration). The meta-group
	// view arbitrates — its versions only grow through live members — so an
	// instance that sees its own slot alive on another node is superseded
	// and stands down, guaranteeing at most one GSD (and one leader claim)
	// per partition once views converge.
	if m, ok := v.Members[g.spec.Partition]; ok && m.Alive && m.Node != g.h.Node() && !g.standingDown {
		g.standingDown = true
		g.h.After(0, g.standDown)
	}
}

// standDown kills this GSD and its supervised local service instances: the
// partition's services now live with the winning instance, and a stale
// co-located trio would shadow it on this node. Deferred via After so the
// teardown never runs inside the message dispatch that discovered it.
func (g *Daemon) standDown() {
	host := g.h.Host()
	for _, svc := range g.localSvcs {
		_ = host.Kill(svc)
	}
	_ = host.Kill(types.SvcGSD)
}

// --- partition monitoring callbacks ----------------------------------------

func (g *Daemon) onNodeSuspect(node types.NodeID) {
	g.publish(types.Event{Type: types.EvNodeSuspect, Node: node})
}

// onNodeRefuted runs when a suspect proved itself alive by bumping its
// incarnation: no verdict was issued and nothing was marked down, so the
// federation view and shard map stay untouched.
func (g *Daemon) onNodeRefuted(node types.NodeID, inc uint64) {
	_ = inc
	g.publish(types.Event{Type: types.EvProcRecover, Node: node, Service: types.SvcWD,
		Detail: "suspicion refuted"})
}

// publishQuarantine publishes a flap-quarantine transition of a partition
// member node (the scheduling-exclusion event) or, with Service SvcGSD, of
// the ring slot this member watches. Either stays a member and stays
// monitored.
func (g *Daemon) publishQuarantine(ev types.Event, on bool) {
	ev.Type = types.EvNodeQuarantine
	if !on {
		ev.Type = types.EvNodeStable
	}
	g.publish(ev)
}

// indirectPeers lists healthy partition members that can relay a probe to
// a suspect — everyone but the suspect itself and this node (whose direct
// probe is already in flight).
func (g *Daemon) indirectPeers(exclude types.NodeID) []types.NodeID {
	part, ok := g.spec.Topo.Partition(g.spec.Partition)
	if !ok {
		return nil
	}
	var out []types.NodeID
	for _, n := range part.Members {
		if n == exclude || n == g.h.Node() {
			continue
		}
		if g.mon.Status(n) == heartbeat.StatusHealthy {
			out = append(out, n)
		}
	}
	return out
}

func (g *Daemon) onNICSuspect(node types.NodeID, nic int) {
	g.publish(types.Event{Type: types.EvNetSuspect, Node: node, NIC: nic})
}

func (g *Daemon) onPartitionDiagnosed(v heartbeat.Verdict) {
	switch v.Kind {
	case types.FaultProcess:
		g.publish(types.Event{Type: types.EvProcFail, Node: v.Node, Service: types.SvcWD})
		g.respawnWD(v.Node)
	case types.FaultNode:
		g.publish(types.Event{Type: types.EvNodeFail, Node: v.Node, Detail: "node silent on all interfaces"})
		g.checkpointPartitionState()
	case types.FaultNIC:
		g.publish(types.Event{Type: types.EvNetFail, Node: v.Node, NIC: v.NIC})
	}
}

func (g *Daemon) onNodeRecovered(node types.NodeID, wasDown bool) {
	delete(g.wdRespawning, node)
	delete(g.reintegrating, node)
	if wasDown {
		g.publish(types.Event{Type: types.EvNodeRecover, Node: node})
		g.checkpointPartitionState()
		// Confirm the re-admission to the node itself: a crash-restarted
		// phoenix-node holds its readiness at "rejoining" until its WD
		// hears from the partition's current GSD.
		g.announceTo(node)
	} else {
		g.publish(types.Event{Type: types.EvProcRecover, Node: node, Service: types.SvcWD})
	}
}

func (g *Daemon) onNICRecovered(node types.NodeID, nic int) {
	g.publish(types.Event{Type: types.EvNetRecover, Node: node, NIC: nic})
}

// respawnWD asks the node's agent to restart the watch daemon. Recovery
// completes when the new WD's first heartbeat arrives (onNodeRecovered).
func (g *Daemon) respawnWD(node types.NodeID) {
	if g.wdRespawning[node] {
		return
	}
	g.wdRespawning[node] = true
	spec := watchd.Spec{
		Partition: g.spec.Partition,
		GSDNode:   g.h.Node(),
		Interval:  g.spec.Params.HeartbeatInterval,
		NICs:      g.spec.Topo.NICs,
		Supervise: true, DetectorSample: g.spec.Params.DetectorSampleInterval,
	}
	tok := g.pending.New(g.spec.Params.RPCTimeout,
		func(payload any) {
			if ack, _ := payload.(simhost.SpawnAck); !ack.OK {
				delete(g.wdRespawning, node) // retry on the next detection
			}
		},
		func() { delete(g.wdRespawning, node) })
	g.h.Send(types.Addr{Node: node, Service: types.SvcAgent}, types.AnyNIC,
		simhost.MsgSpawn, simhost.SpawnReq{Service: types.SvcWD, Spec: spec, Token: tok})
}

// reintegrationSweep probes nodes diagnosed down; when a node answers
// again (rebooted), the GSD re-seeds its per-node daemons.
func (g *Daemon) reintegrationSweep() {
	for _, node := range g.mon.DownNodes() {
		node := node
		if g.reintegrating[node] {
			continue
		}
		g.reintegrating[node] = true
		g.reinProber.Probe(node, types.SvcWD, g.spec.Params.PartitionProbeTimeout,
			func(res heartbeat.ProbeResult) {
				if !res.NodeAlive {
					delete(g.reintegrating, node)
					return
				}
				if res.ServiceRunning {
					// WD already back (a crash-restarted phoenix-node boots
					// its own per-node daemons); its heartbeat will clear the
					// state — but only if it addresses THIS GSD. The restarted
					// WD was configured from the topology, so after a
					// migration it heartbeats a node where the GSD no longer
					// runs. Redirect it before waiting for the heartbeat.
					g.announceTo(node)
					delete(g.reintegrating, node)
					return
				}
				g.reseedNode(node)
			})
	}
}

// reseedNode restarts the per-node daemons (WD, detector, PPM) on a
// rebooted node.
func (g *Daemon) reseedNode(node types.NodeID) {
	agent := types.Addr{Node: node, Service: types.SvcAgent}
	wdSpec := watchd.Spec{
		Partition: g.spec.Partition, GSDNode: g.h.Node(),
		Interval: g.spec.Params.HeartbeatInterval, NICs: g.spec.Topo.NICs,
		Supervise: true, DetectorSample: g.spec.Params.DetectorSampleInterval,
	}
	send := func(service string, spec any) {
		tok := g.pending.New(g.spec.Params.RPCTimeout, func(any) {}, nil)
		g.h.Send(agent, types.AnyNIC, simhost.MsgSpawn,
			simhost.SpawnReq{Service: service, Spec: spec, Token: tok})
	}
	send(types.SvcWD, wdSpec)
	send(types.SvcDetector, detector.Spec{
		Partition: g.spec.Partition, GSDNode: g.h.Node(),
		SampleInterval: g.spec.Params.DetectorSampleInterval,
	})
	send(types.SvcPPM, nil)
}

// --- local service supervision ---------------------------------------------

// recoveringActive reports whether an unexpired restart of svc is in
// flight.
func (g *Daemon) recoveringActive(svc string) bool {
	deadline, ok := g.recovering[svc]
	return ok && g.h.Now().Before(deadline)
}

// armRecovering marks a restart attempt with its expiry.
func (g *Daemon) armRecovering(svc string) {
	g.recovering[svc] = g.h.Now().Add(g.spec.Params.ServiceRecoveryDeadline())
}

// localCheckCost models the process-table lookup that diagnoses a local
// service death (paper Table 3: ~12 µs).
const localCheckCost = 12 * time.Microsecond

// localCheck verifies each supervised service against the host's process
// table; a missing service is detected now, diagnosed after the
// process-table lookup cost, restarted, and declared recovered when it
// reports ready. Detection takes one check period even for co-located
// services (paper Table 3).
func (g *Daemon) localCheck() {
	host := g.h.Host()
	for _, svc := range g.localSvcs {
		svc := svc
		if host.Present(svc) || g.recoveringActive(svc) {
			continue
		}
		g.armRecovering(svc)
		g.publish(types.Event{Type: types.EvServiceSuspect, Service: svc, Node: g.h.Node()})
		g.h.After(localCheckCost, func() {
			g.publish(types.Event{Type: types.EvServiceFail, Service: svc, Node: g.h.Node()})
			g.restartLocalService(svc)
		})
	}
}

// readyHandshake marks services that announce their own recovery
// completion (after restoring from the checkpoint service); others are
// considered recovered once their process runs.
var readyHandshake = map[string]bool{
	types.SvcES:  true,
	types.SvcPWS: true,
}

func (g *Daemon) restartLocalService(svc string) {
	spec := ServiceSpawnSpec{Partition: g.spec.Partition, View: g.fedView.Clone(), Restart: true}
	if _, err := g.h.Host().SpawnService(svc, spec); err != nil {
		delete(g.recovering, svc)
		return
	}
	if !readyHandshake[svc] {
		// DB and checkpoint instances have no restore handshake; their
		// start event completes recovery.
		g.awaitServiceStart(svc, svc == types.SvcDB)
	}
}

// awaitServiceStart polls the process table until the restarted service
// runs, then publishes its recovery. With announce set it then announces
// the GSD to the partition: a bulletin restarted in place starts empty,
// and the announce makes each detector re-send its running jobs' rows.
func (g *Daemon) awaitServiceStart(svc string, announce bool) {
	g.h.After(10*time.Millisecond, func() {
		if g.h.Host().Running(svc) {
			g.onServiceReady(svc)
			if announce {
				g.announcePartition()
			}
			return
		}
		if g.recoveringActive(svc) {
			g.awaitServiceStart(svc, announce)
		}
	})
}

func (g *Daemon) onServiceReady(svc string) {
	if _, pending := g.recovering[svc]; !pending {
		return
	}
	delete(g.recovering, svc)
	// The service may have started from a stale spec view (it spawned
	// while the membership was still converging); re-push the current one.
	g.h.Send(types.Addr{Node: g.h.Node(), Service: svc}, types.AnyNIC,
		federation.MsgView, federation.ViewMsg{View: g.fedView.Clone()})
	g.publish(types.Event{Type: types.EvServiceRecover, Service: svc, Node: g.h.Node()})
}

// ensureLocalServices spawns any missing partition services on this node
// (the migration path: a new server node starts bare).
func (g *Daemon) ensureLocalServices(restart bool) {
	host := g.h.Host()
	for _, svc := range g.localSvcs {
		if host.Present(svc) {
			continue
		}
		spec := ServiceSpawnSpec{Partition: g.spec.Partition, View: g.fedView.Clone(), Restart: restart}
		if _, err := host.SpawnService(svc, spec); err == nil && restart {
			g.armRecovering(svc)
			if !readyHandshake[svc] {
				// The migration path announces at start and after the
				// restore; detectors re-send their job rows a sample
				// interval after an announce, once this instance runs.
				g.awaitServiceStart(svc, false)
			}
		}
	}
}

// --- meta-group callbacks ---------------------------------------------------

func (g *Daemon) onMemberSuspect(part types.PartitionID, node types.NodeID) {
	g.publish(types.Event{Type: types.EvMemberSuspect, Node: node, Service: types.SvcGSD,
		Detail: part.String()})
}

func (g *Daemon) onMemberDiagnosed(part types.PartitionID, node types.NodeID, kind types.FaultKind) {
	g.publish(types.Event{Type: types.EvMemberFail, Node: node, Service: types.SvcGSD,
		Detail: kind.String() + " " + part.String()})
}

// TakeoverPending lists the partitions whose recovery this member
// currently drives, expired attempts included (observability for tests
// and tools; the dead-slot sweep is what retires or retries them).
func (g *Daemon) TakeoverPending() []types.PartitionID {
	out := make([]types.PartitionID, 0, len(g.takeoverPending))
	for p := range g.takeoverPending {
		out = append(out, p)
	}
	return out
}

// takeoverActive reports whether an unexpired recovery attempt for the
// partition is in flight.
func (g *Daemon) takeoverActive(part types.PartitionID) bool {
	deadline, ok := g.takeoverPending[part]
	return ok && g.h.Now().Before(deadline)
}

// armTakeover marks a recovery attempt with its expiry.
func (g *Daemon) armTakeover(part types.PartitionID) {
	g.takeoverPending[part] = g.h.Now().Add(
		2*g.spec.Params.MetaHeartbeatInterval + g.spec.Params.RPCTimeout + 10*time.Second)
}

// onTakeover drives recovery of a failed peer GSD: restart in place for a
// process fault, migrate to another of the partition's server-capable
// nodes for a node fault, walking candidates until one answers.
func (g *Daemon) onTakeover(part types.PartitionID, failed membership.MemberInfo, kind types.FaultKind) {
	if g.takeoverActive(part) {
		return
	}
	g.armTakeover(part)
	switch kind {
	case types.FaultProcess:
		g.tryRecovery(part, []types.NodeID{failed.Node}, 0)
	case types.FaultNode:
		g.tryRecovery(part, g.recoveryCandidates(part, failed.Node), 0)
	}
}

// recoveryCandidates lists the nodes a partition's GSD may run on — the
// configured server and backups — excluding one known-dead node.
func (g *Daemon) recoveryCandidates(part types.PartitionID, avoid types.NodeID) []types.NodeID {
	info, ok := g.spec.Topo.Partition(part)
	if !ok {
		return nil
	}
	var out []types.NodeID
	for _, n := range append([]types.NodeID{info.Server}, info.Backups...) {
		if n != avoid {
			out = append(out, n)
		}
	}
	return out
}

// tryRecovery probes candidates[i] and spawns the GSD on the first that
// answers; when the list is exhausted, the pending flag clears and the
// dead-slot sweep retries later (a partition whose server and backups are
// all dead recovers as soon as one reboots).
func (g *Daemon) tryRecovery(part types.PartitionID, candidates []types.NodeID, i int) {
	if _, pending := g.takeoverPending[part]; !pending {
		return
	}
	if i >= len(candidates) {
		delete(g.takeoverPending, part)
		return
	}
	target := candidates[i]
	g.reinProber.Probe(target, types.SvcAgent, g.spec.Params.MetaProbeTimeout,
		func(res heartbeat.ProbeResult) {
			if _, pending := g.takeoverPending[part]; !pending {
				return
			}
			if !res.NodeAlive {
				g.tryRecovery(part, candidates, i+1)
				return
			}
			g.spawnGSD(part, target, func() { g.tryRecovery(part, candidates, i+1) })
		})
}

// spawnGSD asks target's agent to start the partition's GSD; onFail runs
// when the agent refuses or stays silent.
func (g *Daemon) spawnGSD(part types.PartitionID, target types.NodeID, onFail func()) {
	g.takeovers++
	// The view version floors the successor's fencing epoch: MarkDead bumped
	// it past anything the failed instance announced with.
	spec := SpawnSpec{Partition: part, View: g.member.View().Clone(), Migrated: true,
		Epoch: g.member.View().Version}
	tok := g.pending.New(g.spec.Params.RPCTimeout,
		func(payload any) {
			if ack, _ := payload.(simhost.SpawnAck); !ack.OK && onFail != nil {
				onFail()
			}
		},
		onFail)
	g.h.Send(types.Addr{Node: target, Service: types.SvcAgent}, types.AnyNIC,
		simhost.MsgSpawn, simhost.SpawnReq{Service: types.SvcGSD, Spec: spec, Token: tok})
}

// deadSlotSweep retries recovery of meta-group slots that stayed dead —
// the ring successor of each dead slot (this member, when the sweep acts)
// re-attempts the candidate walk, now including the node the GSD last died
// on (it may have rebooted).
func (g *Daemon) deadSlotSweep() {
	v := g.member.View()
	for _, part := range v.Order {
		if part == g.spec.Partition || v.Alive(part) || g.takeoverActive(part) {
			continue
		}
		succ, ok := v.Successor(part)
		if !ok || succ != g.spec.Partition {
			continue
		}
		g.armTakeover(part)
		g.tryRecovery(part, g.recoveryCandidates(part, -1), 0)
	}
}

func (g *Daemon) onMemberJoin(part types.PartitionID, node types.NodeID) {
	if _, pending := g.takeoverPending[part]; !pending {
		return
	}
	delete(g.takeoverPending, part)
	g.publish(types.Event{Type: types.EvMemberRecover, Node: node, Service: types.SvcGSD,
		Detail: part.String()})
}

// --- partition state checkpointing ------------------------------------------

// partState is the GSD's checkpointed partition knowledge: which member
// nodes were diagnosed down. A migrated GSD restores it so it resumes with
// its predecessor's view instead of re-detecting every failure.
type partState struct {
	Down []types.NodeID
	// Epoch is the fencing epoch the instance held when it checkpointed;
	// a migrated successor restores Epoch+1 so it always outbids the
	// predecessor at the partition's WDs.
	Epoch uint64
}

func init() { codec.Register(194, partState{}) }

func (g *Daemon) ckptOwner() string { return fmt.Sprintf("gsd/%d", g.spec.Partition) }

// checkpointPartitionState saves the down-node set after every change.
func (g *Daemon) checkpointPartitionState() {
	data, err := codec.AppendPayload(nil, partState{Down: g.mon.DownNodes(), Epoch: g.epoch})
	if err != nil {
		return
	}
	g.ckpt.Save(g.ckptOwner(), data, nil)
}

// restorePartitionState loads the predecessor's down-node set (migration
// path), marking those nodes down in the monitor, then runs done. The
// co-located checkpoint instance may still be paying its exec latency, so
// the restore waits for it rather than burning a full request timeout on a
// dropped message.
func (g *Daemon) restorePartitionState(done func()) {
	g.restoreWhenCkptUp(done, 60)
}

func (g *Daemon) restoreWhenCkptUp(done func(), attempts int) {
	if !g.h.Host().Running(types.SvcCkpt) {
		if attempts <= 0 {
			done()
			return
		}
		g.h.After(50*time.Millisecond, func() { g.restoreWhenCkptUp(done, attempts-1) })
		return
	}
	g.ckpt.Restore(g.ckptOwner(), func(data []byte, found bool) {
		if found {
			var st partState
			if err := codec.DecodePayload(data, &st); err == nil {
				for _, n := range st.Down {
					g.mon.MarkDown(n)
				}
				if st.Epoch+1 > g.epoch {
					g.epoch = st.Epoch + 1
				}
			}
		}
		done()
	})
}

var _ simhost.Process = (*Daemon)(nil)
