// Package shard maps bulletin keys to the federation peers that own them:
// a consistent-hash ring with virtual nodes, derived deterministically from
// the service-federation view. Every key range gets one primary partition
// plus R-1 replicas (the next distinct partitions clockwise on the ring),
// so when a partition dies its ranges land exactly on the peers that
// already replicate them — promotion is a recomputation, not a transfer.
//
// The map is versioned like federation.View (in fact it inherits the
// view's version), so the GSD's existing view-push machinery distributes
// it: every bulletin instance derives the same map from the same view, and
// clients adopt maps piggybacked on bulletin replies, newest version wins.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/federation"
	"repro/internal/types"
)

// Defaults applied when a Map is built with zero parameters.
const (
	// DefaultReplicas is the copy count per key range, primary included.
	DefaultReplicas = 2
	// DefaultVNodes is the virtual-node count per partition on the ring;
	// more points smooth the range distribution across partitions.
	DefaultVNodes = 64
)

// Role is a partition's relationship to one key.
type Role int

const (
	// RoleNone: the partition holds no copy of the key.
	RoleNone Role = iota
	// RoleReplica: the partition holds a replica copy.
	RoleReplica
	// RolePrimary: the partition owns the key — writes are applied here
	// first and propagate outward as deltas.
	RolePrimary
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	default:
		return "none"
	}
}

// Entry places one alive partition's bulletin instance.
type Entry struct {
	Part types.PartitionID
	Node types.NodeID
}

// Map assigns key ranges to partitions. It is immutable once built — a
// newer view produces a whole new Map — so instances and clients can hand
// copies around freely.
type Map struct {
	// Version is the federation view version the map was derived from;
	// higher versions win on adoption.
	Version uint64
	// Replicas is the copy count per key, primary included.
	Replicas int
	// VNodes is the virtual-node count per partition.
	VNodes int
	// Entries lists the alive partitions in ascending partition order.
	Entries []Entry

	ring []point // lazily built, not serialised
}

type point struct {
	hash uint64
	part types.PartitionID
}

// FromView derives the shard map from a federation view: every alive
// partition contributes vnodes ring points, and the map inherits the
// view's version. The derivation is deterministic, so peers holding the
// same view agree on ownership without any coordination.
func FromView(v federation.View, replicas, vnodes int) Map {
	m := Map{Version: v.Version, Replicas: replicas, VNodes: vnodes}
	if m.Replicas < 1 {
		m.Replicas = DefaultReplicas
	}
	if m.VNodes < 1 {
		m.VNodes = DefaultVNodes
	}
	for _, p := range v.Partitions() {
		if e := v.Entries[p]; e.Alive && !e.Quarantined {
			m.Entries = append(m.Entries, Entry{Part: p, Node: e.Node})
		}
	}
	if len(m.Entries) == 0 {
		// Degenerate case: every alive partition is flap-quarantined.
		// Quarantine is a preference, not a partition of the data — fall
		// back to the alive set rather than produce an ownerless ring.
		for _, p := range v.Partitions() {
			if e := v.Entries[p]; e.Alive {
				m.Entries = append(m.Entries, Entry{Part: p, Node: e.Node})
			}
		}
	}
	return m
}

// NodeKey is the shard key under which one node's bulletin rows
// (resource sample plus its application states) are stored.
func NodeKey(n types.NodeID) string { return "n" + strconv.Itoa(int(n)) }

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is a 64-bit finaliser (murmur3 fmix64): FNV alone scatters short
// sequential keys poorly across the ring, which skews range ownership.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ensureRing builds the sorted virtual-node ring on first use.
func (m *Map) ensureRing() {
	if m.ring != nil || len(m.Entries) == 0 {
		return
	}
	m.ring = make([]point, 0, len(m.Entries)*m.VNodes)
	for _, e := range m.Entries {
		for i := 0; i < m.VNodes; i++ {
			m.ring = append(m.ring, point{
				hash: hashKey(fmt.Sprintf("p%d#%d", int(e.Part), i)),
				part: e.Part,
			})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		return m.ring[i].part < m.ring[j].part
	})
}

// Empty reports whether the map places no partitions at all.
func (m Map) Empty() bool { return len(m.Entries) == 0 }

// Owners returns the partitions holding the key, primary first, then the
// replicas in ring order. At most Replicas distinct partitions.
func (m *Map) Owners(key string) []types.PartitionID {
	return m.successors(key, m.Replicas)
}

// successors walks the ring clockwise from the key's point, collecting up
// to max distinct partitions.
func (m *Map) successors(key string, max int) []types.PartitionID {
	m.ensureRing()
	if len(m.ring) == 0 || max <= 0 {
		return nil
	}
	if max > len(m.Entries) {
		max = len(m.Entries)
	}
	h := hashKey(key)
	start := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	out := make([]types.PartitionID, 0, max)
	for i := 0; i < len(m.ring) && len(out) < max; i++ {
		p := m.ring[(start+i)%len(m.ring)].part
		dup := false
		for _, o := range out {
			if o == p {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// Primary returns the key's owning partition.
func (m *Map) Primary(key string) (types.PartitionID, bool) {
	owners := m.successors(key, 1)
	if len(owners) == 0 {
		return 0, false
	}
	return owners[0], true
}

// RoleOf reports what part is to the key: primary, replica, or none.
func (m *Map) RoleOf(part types.PartitionID, key string) Role {
	for i, p := range m.Owners(key) {
		if p == part {
			if i == 0 {
				return RolePrimary
			}
			return RoleReplica
		}
	}
	return RoleNone
}

// OwnedBy reports whether part holds any copy of the key.
func (m *Map) OwnedBy(part types.PartitionID, key string) bool {
	return m.RoleOf(part, key) != RoleNone
}

// Node returns the node hosting a partition's bulletin instance.
func (m *Map) Node(part types.PartitionID) (types.NodeID, bool) {
	for _, e := range m.Entries {
		if e.Part == part {
			return e.Node, true
		}
	}
	return 0, false
}

// Addrs lists the named service's address at every mapped partition, in
// entry order — the client-side read-spread pool.
func (m *Map) Addrs(service string) []types.Addr {
	out := make([]types.Addr, 0, len(m.Entries))
	for _, e := range m.Entries {
		out = append(out, types.Addr{Node: e.Node, Service: service})
	}
	return out
}

// OwnerAddrs lists the key's copy holders (primary first), then the
// remaining ring successors as last-resort fallbacks — the target list of
// a keyed read: a version mismatch at the owners walks onto the successor.
func (m *Map) OwnerAddrs(key, service string) []types.Addr {
	parts := m.successors(key, len(m.Entries))
	out := make([]types.Addr, 0, len(parts))
	for _, p := range parts {
		if n, ok := m.Node(p); ok {
			out = append(out, types.Addr{Node: n, Service: service})
		}
	}
	return out
}
