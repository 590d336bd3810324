// Package config models the cluster-wide configuration of a Phoenix system
// and implements the configuration service: cluster topology (nodes,
// partitions, roles), kernel timing parameters, a self-introspection
// mechanism that discovers live nodes by probing their agents, and a
// documented interface for dynamic reconfiguration (paper §4.2).
package config

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/types"
)

// NodeInfo describes one node's static placement.
type NodeInfo struct {
	ID        types.NodeID
	Partition types.PartitionID
	Role      types.Role
}

// PartitionInfo describes one partition: its server node (hosting GSD and
// the partition's kernel services), its ordered backup server nodes
// (migration targets), and all member nodes.
type PartitionInfo struct {
	ID      types.PartitionID
	Server  types.NodeID
	Backups []types.NodeID
	Members []types.NodeID // every node of the partition, server included
}

// Topology is the cluster layout. It is immutable once built; dynamic
// reconfiguration produces a new version through the configuration service.
type Topology struct {
	Version    int
	NICs       int
	Master     types.NodeID // hosts configuration + security services
	Nodes      []NodeInfo
	Partitions []PartitionInfo

	byNode map[types.NodeID]NodeInfo
	byPart map[types.PartitionID]PartitionInfo
}

// Build validates and indexes a topology.
func Build(nics int, master types.NodeID, parts []PartitionInfo) (*Topology, error) {
	if nics <= 0 {
		return nil, fmt.Errorf("config: need at least one NIC, got %d", nics)
	}
	t := &Topology{
		Version: 1, NICs: nics, Master: master,
		byNode: make(map[types.NodeID]NodeInfo),
		byPart: make(map[types.PartitionID]PartitionInfo),
	}
	for _, p := range parts {
		if len(p.Members) == 0 {
			return nil, fmt.Errorf("config: %v has no members", p.ID)
		}
		if len(p.Backups) == 0 {
			return nil, fmt.Errorf("config: %v has no backup server node", p.ID)
		}
		inMembers := func(id types.NodeID) bool {
			for _, m := range p.Members {
				if m == id {
					return true
				}
			}
			return false
		}
		if !inMembers(p.Server) {
			return nil, fmt.Errorf("config: server %v not a member of %v", p.Server, p.ID)
		}
		for _, b := range p.Backups {
			if !inMembers(b) {
				return nil, fmt.Errorf("config: backup %v not a member of %v", b, p.ID)
			}
			if b == p.Server {
				return nil, fmt.Errorf("config: backup %v equals server of %v", b, p.ID)
			}
		}
		if _, dup := t.byPart[p.ID]; dup {
			return nil, fmt.Errorf("config: duplicate %v", p.ID)
		}
		t.byPart[p.ID] = p
		t.Partitions = append(t.Partitions, p)
		for _, m := range p.Members {
			if _, dup := t.byNode[m]; dup {
				return nil, fmt.Errorf("config: %v appears in two partitions", m)
			}
			role := types.RoleCompute
			if m == p.Server {
				role = types.RoleServer
			} else {
				for _, b := range p.Backups {
					if b == m {
						role = types.RoleBackup
					}
				}
			}
			ni := NodeInfo{ID: m, Partition: p.ID, Role: role}
			t.byNode[m] = ni
			t.Nodes = append(t.Nodes, ni)
		}
	}
	if _, ok := t.byNode[master]; !ok {
		return nil, fmt.Errorf("config: master %v is not in any partition", master)
	}
	sort.Slice(t.Nodes, func(i, j int) bool { return t.Nodes[i].ID < t.Nodes[j].ID })
	sort.Slice(t.Partitions, func(i, j int) bool { return t.Partitions[i].ID < t.Partitions[j].ID })
	return t, nil
}

// Uniform builds the layout used throughout the paper's evaluation: nParts
// partitions of partSize nodes each, node 0 of each partition the server,
// node 1 the backup, the rest compute nodes. The cluster master is node 0.
func Uniform(nParts, partSize, nics int) (*Topology, error) {
	if partSize < 2 {
		return nil, fmt.Errorf("config: partition size must be >= 2 (server + backup), got %d", partSize)
	}
	parts := make([]PartitionInfo, 0, nParts)
	for p := 0; p < nParts; p++ {
		base := types.NodeID(p * partSize)
		members := make([]types.NodeID, partSize)
		for i := range members {
			members[i] = base + types.NodeID(i)
		}
		parts = append(parts, PartitionInfo{
			ID:      types.PartitionID(p),
			Server:  base,
			Backups: []types.NodeID{base + 1},
			Members: members,
		})
	}
	return Build(nics, 0, parts)
}

// NumNodes reports the total node count.
func (t *Topology) NumNodes() int { return len(t.Nodes) }

// Node looks up a node's info.
func (t *Topology) Node(id types.NodeID) (NodeInfo, bool) {
	ni, ok := t.byNode[id]
	return ni, ok
}

// Partition looks up a partition.
func (t *Topology) Partition(id types.PartitionID) (PartitionInfo, bool) {
	p, ok := t.byPart[id]
	return p, ok
}

// PartitionOf returns the partition containing a node.
func (t *Topology) PartitionOf(id types.NodeID) (PartitionInfo, bool) {
	ni, ok := t.byNode[id]
	if !ok {
		return PartitionInfo{}, false
	}
	return t.Partition(ni.Partition)
}

// Servers lists the partition server nodes in partition order — the initial
// meta-group membership.
func (t *Topology) Servers() []types.NodeID {
	out := make([]types.NodeID, 0, len(t.Partitions))
	for _, p := range t.Partitions {
		out = append(out, p.Server)
	}
	return out
}

// ComputeNodes lists nodes that are neither server nor backup of their
// partition.
func (t *Topology) ComputeNodes() []types.NodeID {
	var out []types.NodeID
	for _, n := range t.Nodes {
		if n.Role == types.RoleCompute {
			out = append(out, n.ID)
		}
	}
	return out
}

// Params are the kernel's tunable timing constants. Defaults reproduce the
// paper's testbed configuration (30-second heartbeats) and the latency
// shape of its Tables 1-3; experiments shrink the heartbeat interval when
// only relative behaviour matters.
type Params struct {
	// HeartbeatInterval is the WD -> GSD heartbeat period (paper: 30 s,
	// configurable as a system parameter).
	HeartbeatInterval time.Duration
	// HeartbeatGrace is the slack added to a heartbeat deadline before a
	// miss is declared, covering network latency and jitter.
	HeartbeatGrace time.Duration
	// PartitionProbeTimeout bounds the agent probe the GSD performs when
	// diagnosing a silent node in its partition (paper Table 1: node
	// diagnosis ≈ 2 s).
	PartitionProbeTimeout time.Duration
	// MetaHeartbeatInterval is the GSD ring heartbeat period.
	MetaHeartbeatInterval time.Duration
	// MetaProbeTimeout bounds the probe used for meta-group diagnosis
	// (paper Table 2: node diagnosis ≈ 0.3 s; the ring uses a tighter
	// timeout than partition monitoring).
	MetaProbeTimeout time.Duration
	// LocalCheckPeriod is how often a GSD verifies its co-located kernel
	// services against the host process table (paper Table 3: detection
	// is one heartbeat interval).
	LocalCheckPeriod time.Duration
	// LocalCheckCost models the process-table lookup that diagnoses a
	// local service death (paper Table 3: ~12 µs).
	LocalCheckCost time.Duration
	// MatrixAnalysisCost models the receipt-matrix analysis that
	// diagnoses a NIC failure (paper Tables 1-2: ~350 µs).
	MatrixAnalysisCost time.Duration
	// DetectorSampleInterval is the physical-resource detector's period.
	DetectorSampleInterval time.Duration
	// BulletinFetchTimeout bounds one federation peer fetch during a
	// cluster-wide bulletin query.
	BulletinFetchTimeout time.Duration
	// BulletinCacheTTL is how long a bulletin instance serves a cached
	// cluster snapshot before re-fetching.
	BulletinCacheTTL time.Duration
	// BulletinReplicas is the copy count per key range on the bulletin's
	// sharded data plane, primary included.
	BulletinReplicas int
	// BulletinVNodes is the virtual-node count each partition contributes
	// to the bulletin shard ring.
	BulletinVNodes int
	// BulletinDeltaFlush is how long a shard primary batches writes
	// before gossiping them to its replicas as one delta batch.
	BulletinDeltaFlush time.Duration
	// RPCTimeout is the deadline budget of one kernel RPC — the total
	// time a resilient call may spend across all retry attempts, not a
	// per-attempt timer (attempts divide the budget; see internal/rpc).
	RPCTimeout time.Duration
	// ServiceRecoveryGrace is how long a GSD waits for a restarted local
	// service to report ready before re-detecting it as dead. Zero
	// derives 3*RPCTimeout + 5s: three restore-call budgets for the
	// checkpoint restore plus exec/announce slack.
	ServiceRecoveryGrace time.Duration
	// GossipFanout is the number of random peers each gossip round
	// contacts on the epidemic dissemination plane (0 = gossip.DefaultFanout).
	GossipFanout int
	// GossipInterval is the gossip round period; each round is jittered
	// by up to ±1/8 of it so partitions do not synchronize into bursts.
	GossipInterval time.Duration
	// GossipDigestCap bounds the per-source delta suffix a gossip
	// instance retains for push repair; peers further behind fall back
	// to the bulletin's requestSync full pull.
	GossipDigestCap int
	// HeartbeatJitter is the per-beat random offset on WD heartbeats
	// (uniform in ±HeartbeatJitter). It must stay safely below
	// HeartbeatGrace or the partition monitor declares false misses.
	HeartbeatJitter time.Duration
	// SuspicionThreshold is the phi-accrual suspicion level at which the
	// partition monitor declares a miss. When positive, the per-node
	// deadline adapts to the observed heartbeat inter-arrival
	// distribution — never below HeartbeatInterval+HeartbeatGrace (the
	// paper's fixed deadline stays the floor, so clean-network detection
	// latency is unchanged) and never above SuspicionMaxFactor times it.
	// Zero keeps the paper's fixed deadline.
	SuspicionThreshold float64
	// SuspicionWindow is the per-node inter-arrival sample window backing
	// the accrual estimate.
	SuspicionWindow int
	// SuspicionMaxFactor caps the adaptive deadline at this multiple of
	// the fixed deadline. Zero derives 6.
	SuspicionMaxFactor float64
	// IndirectProbes is how many partition peers the GSD asks to probe a
	// suspect through their own interfaces before escalating a silent
	// direct probe to a node-fail verdict. Zero disables indirect probing.
	IndirectProbes int
	// FlapThreshold is the decaying per-node flap score at which a node
	// is quarantined: still a member, still monitored, but excluded from
	// shard ownership and PWS scheduling until the score halves. Zero
	// disables quarantine.
	FlapThreshold float64
	// FlapHalfLife is the exponential-decay half-life of the flap score.
	// Zero derives 20 heartbeat intervals.
	FlapHalfLife time.Duration
	// JobRequeueBudget bounds how many times PWS requeues one job after
	// slice crashes or dispatch failures before quarantining it in the
	// terminal failed state. Zero derives 3.
	JobRequeueBudget int
	// UtilPauseAt, UtilPreemptAt and UtilRefuseAt are the cluster
	// utilisation thresholds of the PWS shed ladder: at PauseAt new batch
	// dispatch is held, at PreemptAt the lowest-priority running batch job
	// is preempted and requeued, at RefuseAt batch submits are refused at
	// admission. Service pools are never shed. Zero derives
	// 0.85/0.92/0.97.
	UtilPauseAt   float64
	UtilPreemptAt float64
	UtilRefuseAt  float64
	// UtilHysteresis is the margin below a rung's threshold the
	// utilisation must fall before the ladder steps down one level, so a
	// cluster hovering on a threshold does not flap between shedding and
	// dispatching. Zero derives 0.15.
	UtilHysteresis float64
	// LeaseReturnDelay is how long a service pool retains a node borrowed
	// from a batch pool after the borrowing job finishes, provided the
	// cluster stayed hot; the node returns to its lender only after the
	// utilisation has been below the pause threshold (minus hysteresis)
	// for this long. Zero derives 10s.
	LeaseReturnDelay time.Duration
}

// ServiceRecoveryDeadline is the effective restart-grace window:
// ServiceRecoveryGrace, or its derived default when unset.
func (p Params) ServiceRecoveryDeadline() time.Duration {
	if p.ServiceRecoveryGrace > 0 {
		return p.ServiceRecoveryGrace
	}
	return 3*p.RPCTimeout + 5*time.Second
}

// DefaultParams mirrors the paper's evaluation configuration.
func DefaultParams() Params {
	return Params{
		HeartbeatInterval:      30 * time.Second,
		HeartbeatGrace:         50 * time.Millisecond,
		PartitionProbeTimeout:  2 * time.Second,
		MetaHeartbeatInterval:  30 * time.Second,
		MetaProbeTimeout:       300 * time.Millisecond,
		LocalCheckPeriod:       30 * time.Second,
		LocalCheckCost:         12 * time.Microsecond,
		MatrixAnalysisCost:     350 * time.Microsecond,
		DetectorSampleInterval: 5 * time.Second,
		BulletinFetchTimeout:   250 * time.Millisecond,
		BulletinCacheTTL:       2 * time.Second,
		BulletinReplicas:       2,
		BulletinVNodes:         64,
		BulletinDeltaFlush:     250 * time.Millisecond,
		RPCTimeout:             3 * time.Second,
		GossipFanout:           3,
		GossipInterval:         2 * time.Second,
		GossipDigestCap:        32,
		// Zero: the paper's Tables 1-3 measure detection latency against a
		// phase-aligned beat schedule, so the evaluation config keeps WD
		// beats deterministic. Deployments that want to avoid synchronized
		// beat bursts opt in by setting a value below HeartbeatGrace.
		HeartbeatJitter: 0,
		// Suspicion level 8 ≈ one-in-10^8 odds the node is still alive
		// under the observed arrival distribution; with a clean network
		// the adaptive deadline sits on the fixed-deadline floor.
		SuspicionThreshold: 8,
		SuspicionWindow:    64,
		IndirectProbes:     2,
		FlapThreshold:      3,
		JobRequeueBudget:   3,
		UtilPauseAt:        0.85,
		UtilPreemptAt:      0.92,
		UtilRefuseAt:       0.97,
		UtilHysteresis:     0.15,
		LeaseReturnDelay:   10 * time.Second,
	}
}

// FlapHalfLifeOrDefault returns FlapHalfLife, deriving 20 heartbeat
// intervals when unset.
func (p Params) FlapHalfLifeOrDefault() time.Duration {
	if p.FlapHalfLife > 0 {
		return p.FlapHalfLife
	}
	return 20 * p.HeartbeatInterval
}

// FastParams scales every interval down for experiments where absolute
// times are irrelevant (scheduling, monitoring scalability), keeping the
// same ratios.
func FastParams() Params {
	p := DefaultParams()
	p.HeartbeatInterval = time.Second
	p.MetaHeartbeatInterval = time.Second
	p.LocalCheckPeriod = time.Second
	// Probe timeouts must exceed the agent's probe-handling delay
	// (~280 ms) or every process fault is misdiagnosed as a node fault.
	p.PartitionProbeTimeout = 500 * time.Millisecond
	p.MetaProbeTimeout = 350 * time.Millisecond
	p.DetectorSampleInterval = time.Second
	p.BulletinDeltaFlush = 100 * time.Millisecond
	p.GossipInterval = 250 * time.Millisecond
	p.LeaseReturnDelay = 2 * time.Second
	return p
}
