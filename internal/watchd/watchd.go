// Package watchd implements the Phoenix watch daemon (WD). One WD runs on
// every node and sends a heartbeat to its partition's group service daemon
// through all network interfaces of the node (paper §4.3). The WD is the
// representative of its hosting node: if the node dies, the WD is not
// migrated, because a heartbeat source for a dead node is meaningless
// (paper §5.1).
//
// Beyond heartbeats the WD carries three detection-lifecycle duties: it
// refutes false suspicions by bumping its persisted incarnation number,
// it serves indirect probes on behalf of a remote GSD diagnosing one of
// its peers, and it fences stale GSD primaries whose announce carries an
// outdated epoch.
package watchd

import (
	"time"

	"repro/internal/codec"
	"repro/internal/detector"
	"repro/internal/heartbeat"
	"repro/internal/simhost"
	"repro/internal/types"
)

// IncarnationStore persists the WD's incarnation number across restarts
// (backed by the node's state dir on real nodes; nil in the simulator,
// where the incarnation lives and dies with the process).
type IncarnationStore interface {
	Load() uint64
	Store(uint64)
}

// Spec configures a watch daemon.
type Spec struct {
	Partition types.PartitionID
	GSDNode   types.NodeID // initial GSD location (partition server node)
	Interval  time.Duration
	NICs      int
	// Supervise makes the WD watch over its node's other per-node
	// daemons (detector, PPM) and respawn them locally when they die —
	// the WD is the node's watchdog, not only its heartbeat source.
	Supervise bool
	// DetectorSample is the sampling period used when respawning the
	// detector.
	DetectorSample time.Duration
}

func init() { codec.Register(80, Spec{}) }

// WD is the watch daemon process.
type WD struct {
	spec   Spec
	h      *simhost.Handle
	seq    uint64
	boot   time.Time
	gsd    types.NodeID
	anns   int
	inc    uint64
	store  IncarnationStore
	epoch  uint64 // highest GSD fencing epoch seen
	rejoin bool
	prober *heartbeat.Prober
}

// New builds a watch daemon.
func New(spec Spec) *WD { return &WD{spec: spec, gsd: spec.GSDNode} }

// UseStore attaches the persistent incarnation store; it must be called
// before Start.
func (w *WD) UseStore(s IncarnationStore) {
	w.store = s
	if s != nil {
		w.inc = s.Load()
	}
}

// MarkRejoin flags a WD booted on a crash-restarted node. Its GSD
// target comes from the topology, and the partition may have migrated
// while the node was down; until a GSD announces itself, a suspicion from
// a GSD on another node is answered with a rejoin request to that GSD.
func (w *WD) MarkRejoin() { w.rejoin = true }

// Service implements simhost.Process.
func (w *WD) Service() string { return types.SvcWD }

// Start implements simhost.Process: heartbeat immediately (so a restarted
// WD signals recovery at once), then every interval; the local-daemon
// check shares the heartbeat tick.
func (w *WD) Start(h *simhost.Handle) {
	w.h = h
	w.boot = h.Now()
	w.prober = heartbeat.NewProber(h, w.spec.NICs)
	w.beat()
	h.Every(w.spec.Interval, func() {
		w.beat()
		if w.spec.Supervise {
			w.checkLocalDaemons()
		}
	})
}

// checkLocalDaemons respawns the node's detector and PPM daemons when they
// have left the process table (their factories are registered on every
// host by the kernel).
func (w *WD) checkLocalDaemons() {
	host := w.h.Host()
	if !host.Present(types.SvcDetector) {
		_, _ = host.SpawnService(types.SvcDetector, detector.Spec{
			Partition: w.spec.Partition, GSDNode: w.gsd,
			SampleInterval: w.spec.DetectorSample,
		})
	}
	if !host.Present(types.SvcPPM) {
		_, _ = host.SpawnService(types.SvcPPM, nil)
	}
}

// OnStop implements simhost.Process.
func (w *WD) OnStop() {}

// Receive implements simhost.Process.
func (w *WD) Receive(msg types.Message) {
	switch msg.Type {
	case heartbeat.MsgGSDAnnounce:
		a, ok := msg.Payload.(heartbeat.GSDAnnounce)
		if !ok || a.Partition != w.spec.Partition {
			return
		}
		if a.Epoch < w.epoch {
			// A stale primary woke up: fence it instead of letting the
			// heartbeat stream follow it back into a split brain.
			w.h.Send(types.Addr{Node: a.GSDNode, Service: types.SvcGSD}, msg.NIC,
				heartbeat.MsgFenced, heartbeat.Fenced{
					Partition: w.spec.Partition, Node: w.h.Node(), Epoch: w.epoch,
				})
			return
		}
		w.epoch = a.Epoch
		w.gsd = a.GSDNode
		w.anns++
	case heartbeat.MsgSuspect:
		n, ok := msg.Payload.(heartbeat.SuspectNotice)
		if !ok || n.Node != w.h.Node() {
			return
		}
		// Refute: outbid the incarnation the suspicion was raised at and
		// beat immediately on every interface.
		if n.Inc >= w.inc {
			w.inc = n.Inc
		}
		w.inc++
		if w.store != nil {
			w.store.Store(w.inc)
		}
		if w.rejoin && w.anns == 0 && msg.From.Service == types.SvcGSD && msg.From.Node != w.gsd {
			w.h.Send(msg.From, msg.NIC, heartbeat.MsgRejoin, w.heartbeat())
		}
		w.beat()
	case heartbeat.MsgIndirectProbe:
		q, ok := msg.Payload.(heartbeat.IndirectProbeReq)
		if !ok || w.prober == nil {
			return
		}
		from, nic := msg.From, msg.NIC
		w.prober.Probe(q.Target, q.Service, w.spec.Interval, func(res heartbeat.ProbeResult) {
			if !res.NodeAlive {
				return // silence relays as silence
			}
			w.h.Send(from, nic, heartbeat.MsgIndirectAck, heartbeat.IndirectProbeAck{
				Target: q.Target, Token: q.Token,
				Alive: true, Running: res.ServiceRunning,
			})
		})
	case simhost.MsgProbeAck:
		if ack, ok := msg.Payload.(simhost.ProbeAck); ok && w.prober != nil {
			w.prober.HandleProbeAck(ack)
		}
	}
}

// GSDNode reports the WD's current heartbeat target.
func (w *WD) GSDNode() types.NodeID { return w.gsd }

// Epoch reports the highest GSD fencing epoch the WD has accepted.
func (w *WD) Epoch() uint64 { return w.epoch }

// Incarnation reports the WD's current incarnation number.
func (w *WD) Incarnation() uint64 { return w.inc }

// Announces reports how many GSD announcements this WD has received since
// it started — a crash-restarted node uses its first post-restart announce
// as the signal that the partition's GSD is re-admitting it.
func (w *WD) Announces() int { return w.anns }

func (w *WD) beat() {
	w.seq++
	hb := w.heartbeat()
	to := types.Addr{Node: w.gsd, Service: types.SvcGSD}
	for nic := 0; nic < w.spec.NICs; nic++ {
		w.h.Send(to, nic, heartbeat.MsgHeartbeat, hb)
	}
}

func (w *WD) heartbeat() heartbeat.Heartbeat {
	return heartbeat.Heartbeat{
		Node:     w.h.Node(),
		Seq:      w.seq,
		Interval: w.spec.Interval,
		Boot:     w.boot,
		Inc:      w.inc,
	}
}

var _ simhost.Process = (*WD)(nil)
