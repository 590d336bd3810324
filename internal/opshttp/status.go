package opshttp

import (
	"fmt"
	"strings"

	"repro/internal/bulletin"
	"repro/internal/gossip"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// GSD role strings reported in Status.GSDRole. A node that hosts no GSD
// reports GSDNone.
const (
	GSDLeader   = "leader"
	GSDPrincess = "princess"
	GSDMember   = "member"
	GSDNone     = "-"
)

// Status is one node's operational snapshot: the struct served as JSON at
// /statusz, folded into /metrics as phoenix_* gauges, printed by
// phoenix-node's periodic status line, and tabulated across the cluster
// by phoenix-admin. It is the single source of truth for "how is this
// node doing" — every surface renders this struct rather than reading
// kernel state or metric counters ad hoc.
type Status struct {
	Node      int `json:"node"`
	Partition int `json:"partition"`
	// Role is the node's topology role: server, backup or compute.
	Role string `json:"role"`

	// Booted reports that the kernel slice is up (host powered on,
	// daemons spawned); it gates /healthz.
	Booted bool `json:"booted"`
	// Ready reports that the node is serving its cluster role — booted,
	// and the GSD it hosts (or heartbeats to) knows a live meta-group
	// leader; it gates /readyz. ReadyReason explains a false Ready.
	Ready       bool   `json:"ready"`
	ReadyReason string `json:"ready_reason,omitempty"`
	// Rejoining marks a crash-restarted node that has not yet been
	// re-admitted by its partition's GSD: the node boots from its state
	// directory, withholds its server daemons, and answers /readyz with
	// 503 "rejoining" until a current GSD announces itself to the node's
	// watch daemon (or the rejoin grace elapses).
	Rejoining bool `json:"rejoining,omitempty"`

	// GSDRole is leader/princess/member when this node hosts a GSD,
	// GSDNone ("-") otherwise.
	GSDRole string `json:"gsd_role"`
	// LeaderPartition / LeaderNode name the meta-group leader as known by
	// the GSD hosted here; -1 when unknown (or no GSD hosted).
	LeaderPartition int `json:"leader_partition"`
	LeaderNode      int `json:"leader_node"`
	// MetaAlive / MetaSize summarise the hosted GSD's membership view.
	MetaAlive int `json:"meta_alive"`
	MetaSize  int `json:"meta_size"`

	// Procs lists the services in the node's process table, sorted.
	Procs []string `json:"procs"`
	// BulletinRows counts resource rows in the hosted data-bulletin
	// instance; -1 when this node hosts no bulletin.
	BulletinRows int `json:"bulletin_rows"`
	// Shard is the hosted bulletin instance's data-plane snapshot: shard
	// ownership, replication lag, delta propagation and the query cache.
	// Nil when this node hosts no bulletin.
	Shard *bulletin.ShardStats `json:"shard,omitempty"`
	// Detect is the hosted GSD's failure-detection lifecycle snapshot:
	// suspicion counters, member lifecycle lists and the fencing epoch.
	// Nil when this node hosts no GSD.
	Detect *Detect `json:"detect,omitempty"`
	// Gossip is the hosted dissemination instance's snapshot: rounds run,
	// digests and updates exchanged, deltas learned, repair gaps. Nil when
	// this node hosts no gossip service (compute node).
	Gossip *gossip.Stats `json:"gossip,omitempty"`
	// Peers counts the nodes in the wire address book.
	Peers int `json:"peers"`

	// Util is the node's local utilisation signal — the same CPU/runqueue
	// fold (types.ResourceStats.Util) the detector exports to the bulletin
	// and the scheduler's backpressure consumes, in [0,1].
	Util float64 `json:"util"`
	// Draining marks a node an operator drained out of job placement (the
	// scheduler's drain mark, mirrored by the local PPM); /readyz answers
	// 503 "draining" while set.
	Draining bool `json:"draining,omitempty"`
	// PWS is the scheduler overview when this node hosts the PWS
	// scheduler: shed ladder standing, overload counters and per-pool
	// occupancy. Nil on every other node.
	PWS *PWSStatus `json:"pws,omitempty"`

	UptimeSeconds float64 `json:"uptime_seconds"`

	// Wire is the transport's traffic/reliability snapshot, totals and
	// per plane.
	Wire wire.Stats `json:"wire"`

	// CodecSizeErrors counts codec.Size calls that hit an unencodable
	// payload since process start (the cost model then bills the
	// envelope only, so a non-zero value means simulated costs are
	// understated for some message type).
	CodecSizeErrors uint64 `json:"codec_size_errors"`

	// RPC totals the node's resilient kernel calls: issued, retried, shed
	// and failed across every client on the node.
	RPC rpc.CallStats `json:"rpc"`
	// Breakers tabulates every circuit breaker the node has touched
	// (per peer service, plus the node-wide "*" pseudo-service fed by wire
	// faults); BreakersOpen counts the ones not currently closed.
	Breakers     []rpc.BreakerStatus `json:"breakers,omitempty"`
	BreakersOpen int                 `json:"breakers_open"`
}

// PWSStatus is the scheduler overview of a node hosting the PWS
// scheduler (a neutral mirror of the scheduler's StatAck — opshttp does
// not import the scheduler package).
type PWSStatus struct {
	Partition int `json:"partition"`
	// Shed names the shed ladder's rung (none/pause/preempt/refuse);
	// ShedLevel is its numeric form for gauges.
	Shed      string `json:"shed"`
	ShedLevel int    `json:"shed_level"`
	// Util is the cluster utilisation the scheduler folded on its last
	// cycle (distinct from Status.Util, which is this node's own signal).
	Util             float64      `json:"util"`
	ShedTotal        uint64       `json:"shed_total"`
	AdmissionRejects uint64       `json:"admission_rejects"`
	Preempted        uint64       `json:"preempted"`
	LeasedNodes      int          `json:"leased_nodes"`
	Failed           int          `json:"failed"`
	Pools            []PoolStatus `json:"pools,omitempty"`
}

// PoolStatus summarises one scheduling pool in PWSStatus.
type PoolStatus struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Nodes    int    `json:"nodes"`
	Free     int    `json:"free"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Leased   int    `json:"leased"`
	Draining int    `json:"draining"`
}

// Detect is the failure-detection lifecycle snapshot of the GSD hosted on
// a node: cumulative suspicion counters, the current member lifecycle
// lists (suspect / quarantined / failed), the peak live suspicion and
// flap scores, and the partition's fencing epoch.
type Detect struct {
	Suspects     uint64 `json:"suspects"`
	Refutations  uint64 `json:"refutations"`
	IndirectAcks uint64 `json:"indirect_acks"`
	FailVerdicts uint64 `json:"fail_verdicts"`
	// FenceEpoch is the hosted GSD's fencing epoch; Takeovers counts the
	// peer-partition GSD spawns it has driven.
	FenceEpoch uint64 `json:"fence_epoch"`
	Takeovers  uint64 `json:"takeovers"`
	// Suspect / Quarantined / Failed list partition member nodes currently
	// in each lifecycle state.
	Suspect     []int `json:"suspect,omitempty"`
	Quarantined []int `json:"quarantined,omitempty"`
	Failed      []int `json:"failed,omitempty"`
	// MaxSuspicion / MaxFlap are the highest live phi and flap scores
	// across watched members.
	MaxSuspicion float64 `json:"max_suspicion"`
	MaxFlap      float64 `json:"max_flap"`
}

// Line renders the status as the one-line form phoenix-node logs
// periodically.
func (st Status) Line() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "node %d [%s p%d]", st.Node, st.Role, st.Partition)
	if st.GSDRole != GSDNone && st.GSDRole != "" {
		fmt.Fprintf(&sb, " gsd=%s meta %d/%d", st.GSDRole, st.MetaAlive, st.MetaSize)
	}
	fmt.Fprintf(&sb, " ready=%v", st.Ready)
	if st.Rejoining {
		sb.WriteString(" rejoining")
	}
	fmt.Fprintf(&sb, " procs %d", len(st.Procs))
	w := st.Wire
	fmt.Fprintf(&sb, ", tx %d, rx %d datagrams, retx %d, dup %d, frag %d/%d, acks %d, faults %d, errs %d",
		w.TxDatagrams, w.RxDatagrams, w.Retransmits, w.DupDrops,
		w.TxFrags, w.RxFrags, w.TxAcks, w.PeerFaults, w.Errors)
	if st.Shard != nil {
		fmt.Fprintf(&sb, ", shard v%d %d/%d rows, cache %.2f",
			st.Shard.MapVersion, st.Shard.PrimaryRows, st.Shard.ReplicaRows,
			st.Shard.CacheHitRatio())
	}
	if gs := st.Gossip; gs != nil {
		fmt.Fprintf(&sb, ", gossip r%d fv%d d%d/%d gaps %d",
			gs.Rounds, gs.FedVersion, gs.DeltasRx, gs.DeltasTx, gs.Gaps)
	}
	if d := st.Detect; d != nil {
		fmt.Fprintf(&sb, ", detect e%d s%d r%d f%d",
			d.FenceEpoch, d.Suspects, d.Refutations, d.FailVerdicts)
		if len(d.Suspect) > 0 || len(d.Quarantined) > 0 {
			fmt.Fprintf(&sb, " (suspect %d, quarantined %d)",
				len(d.Suspect), len(d.Quarantined))
		}
	}
	fmt.Fprintf(&sb, ", util %.2f", st.Util)
	if st.Draining {
		sb.WriteString(" draining")
	}
	if p := st.PWS; p != nil {
		fmt.Fprintf(&sb, ", pws %s u%.2f shed %d rejects %d leased %d",
			p.Shed, p.Util, p.ShedTotal, p.AdmissionRejects, p.LeasedNodes)
		for _, pool := range p.Pools {
			fmt.Fprintf(&sb, " %s[%s] q%d r%d", pool.Name, pool.Type, pool.Queued, pool.Running)
		}
	}
	fmt.Fprintf(&sb, ", rpc %d/%d ok, rpc retries %d", st.RPC.OK, st.RPC.Calls, st.RPC.Retries)
	if st.RPC.Shed > 0 {
		fmt.Fprintf(&sb, ", rpc shed %d", st.RPC.Shed)
	}
	if st.BreakersOpen > 0 {
		fmt.Fprintf(&sb, ", breakers open %d", st.BreakersOpen)
	}
	fmt.Fprintf(&sb, ", up %.0fs", st.UptimeSeconds)
	return sb.String()
}
