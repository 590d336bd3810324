// Package federation tracks where each partition's kernel services
// currently run. Event, checkpoint and data-bulletin instances form
// complete-graph federations with a single access point (paper §4.4); after
// a GSD migration moves a partition's services to a backup node, the
// federation view is what lets every peer keep addressing them.
//
// The view is maintained by the GSDs (from the meta-group membership) and
// pushed to their co-located service instances.
package federation

import (
	"sort"

	"repro/internal/codec"
	"repro/internal/types"
)

// MsgView is the GSD -> local service view push.
const MsgView = "fed.view"

// Entry locates one partition's service host. Quarantined mirrors the
// membership view's flap-quarantine flag: the services stay addressable,
// but shard ownership skips the partition until it stabilises.
type Entry struct {
	Node        types.NodeID
	Alive       bool
	Quarantined bool
}

// View maps partitions to the node hosting their kernel services. Higher
// versions win.
type View struct {
	Version uint64
	Entries map[types.PartitionID]Entry
}

// ViewMsg carries a view push.
type ViewMsg struct{ View View }

func init() { codec.Register(224, ViewMsg{}) }

// NewView builds a version-1 view from a static placement.
func NewView(placement map[types.PartitionID]types.NodeID) View {
	v := View{Version: 1, Entries: make(map[types.PartitionID]Entry, len(placement))}
	for p, n := range placement {
		v.Entries[p] = Entry{Node: n, Alive: true}
	}
	return v
}

// Clone deep-copies the view.
func (v View) Clone() View {
	nv := View{Version: v.Version, Entries: make(map[types.PartitionID]Entry, len(v.Entries))}
	for p, e := range v.Entries {
		nv.Entries[p] = e
	}
	return nv
}

// Partitions lists all partitions in the view, sorted.
func (v View) Partitions() []types.PartitionID {
	out := make([]types.PartitionID, 0, len(v.Entries))
	for p := range v.Entries {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PeerAddrs returns the addresses of the named service at every alive
// partition other than self, in partition order.
func (v View) PeerAddrs(self types.PartitionID, service string) []types.Addr {
	var out []types.Addr
	for _, p := range v.Partitions() {
		if p == self {
			continue
		}
		e := v.Entries[p]
		if e.Alive {
			out = append(out, types.Addr{Node: e.Node, Service: service})
		}
	}
	return out
}

// PeerNodes returns the host nodes of every alive partition other than
// self, in partition order. The deterministic order is load-bearing for
// the gossip plane: peer selection shuffles this list with a seeded RNG,
// so identical views must yield identical candidate orders.
func (v View) PeerNodes(self types.PartitionID) []types.NodeID {
	var out []types.NodeID
	for _, p := range v.Partitions() {
		if p == self {
			continue
		}
		if e := v.Entries[p]; e.Alive {
			out = append(out, e.Node)
		}
	}
	return out
}

// Addr returns the address of the named service for one partition.
func (v View) Addr(part types.PartitionID, service string) (types.Addr, bool) {
	e, ok := v.Entries[part]
	if !ok || !e.Alive {
		return types.Addr{}, false
	}
	return types.Addr{Node: e.Node, Service: service}, true
}

// Adopt merges a pushed view, keeping the higher version. It reports
// whether the view changed.
func (v *View) Adopt(nv View) bool {
	if nv.Version <= v.Version {
		return false
	}
	*v = nv.Clone()
	return true
}
