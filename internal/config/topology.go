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

// Params are the kernel's settings that a preset or a deployment varies.
// Defaults reproduce the paper's testbed configuration (30-second
// heartbeats) and the latency shape of its Tables 1-3; experiments shrink
// the intervals when only relative behaviour matters. Values that no
// preset varies are constants beside the code that reads them.
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
	// DetectorSampleInterval is the physical-resource detector's period.
	DetectorSampleInterval time.Duration
	// BulletinFetchTimeout bounds one federation peer fetch during a
	// cluster-wide bulletin query.
	BulletinFetchTimeout time.Duration
	// BulletinCacheTTL is how long a bulletin instance serves a cached
	// cluster snapshot before re-fetching.
	BulletinCacheTTL time.Duration
	// BulletinDeltaFlush is how long a shard primary batches writes
	// before gossiping them to its replicas as one delta batch.
	BulletinDeltaFlush time.Duration
	// RPCTimeout is the deadline budget of one kernel RPC — the total
	// time a resilient call may spend across all retry attempts, not a
	// per-attempt timer (attempts divide the budget; see internal/rpc).
	RPCTimeout time.Duration
	// GossipInterval is the gossip round period; each round is jittered
	// by up to ±1/8 of it so partitions do not synchronize into bursts.
	GossipInterval time.Duration
	// LeaseReturnDelay is how long a service pool retains a node borrowed
	// from a batch pool after the borrowing job finishes, provided the
	// cluster stayed hot; the node returns to its lender only after the
	// utilisation has been below the pause threshold (minus hysteresis)
	// for this long. Zero derives 10s.
	LeaseReturnDelay time.Duration
}

// ServiceRecoveryDeadline is how long a GSD waits for a restarted local
// service to report ready before re-detecting it as dead: three
// restore-call budgets for the checkpoint restore plus exec/announce
// slack.
func (p Params) ServiceRecoveryDeadline() time.Duration {
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
		DetectorSampleInterval: 5 * time.Second,
		BulletinFetchTimeout:   250 * time.Millisecond,
		BulletinCacheTTL:       2 * time.Second,
		BulletinDeltaFlush:     250 * time.Millisecond,
		RPCTimeout:             3 * time.Second,
		GossipInterval:         2 * time.Second,
		LeaseReturnDelay:       10 * time.Second,
	}
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
