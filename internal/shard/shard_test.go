package shard_test

import (
	"fmt"
	"testing"

	"repro/internal/federation"
	"repro/internal/shard"
	"repro/internal/types"
)

func view4(version uint64) federation.View {
	v := federation.NewView(map[types.PartitionID]types.NodeID{
		0: 0, 1: 2, 2: 4, 3: 6,
	})
	v.Version = version
	return v
}

func TestFromViewDeterministicAndVersioned(t *testing.T) {
	a := shard.FromView(view4(7), 2, 64)
	b := shard.FromView(view4(7), 2, 64)
	if a.Version != 7 || b.Version != 7 {
		t.Fatalf("map version = %d/%d, want view version 7", a.Version, b.Version)
	}
	for k := 0; k < 64; k++ {
		key := shard.NodeKey(types.NodeID(k))
		ao, bo := a.Owners(key), b.Owners(key)
		if len(ao) != 2 || len(bo) != 2 {
			t.Fatalf("key %s: owners %v vs %v, want 2 each", key, ao, bo)
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("key %s: maps disagree: %v vs %v", key, ao, bo)
			}
		}
		if ao[0] == ao[1] {
			t.Fatalf("key %s: replica equals primary: %v", key, ao)
		}
	}
}

func TestOwnershipSpreadsAcrossPartitions(t *testing.T) {
	m := shard.FromView(view4(1), 2, 64)
	primaries := make(map[types.PartitionID]int)
	for k := 0; k < 256; k++ {
		p, ok := m.Primary(fmt.Sprintf("key-%d", k))
		if !ok {
			t.Fatal("no primary")
		}
		primaries[p]++
	}
	if len(primaries) != 4 {
		t.Fatalf("only %d partitions own keys: %v", len(primaries), primaries)
	}
	for p, n := range primaries {
		if n < 16 {
			t.Fatalf("partition %v owns only %d/256 keys — ring badly unbalanced: %v", p, n, primaries)
		}
	}
}

func TestRolesAreConsistent(t *testing.T) {
	m := shard.FromView(view4(1), 3, 32)
	key := shard.NodeKey(9)
	owners := m.Owners(key)
	if len(owners) != 3 {
		t.Fatalf("owners = %v, want 3", owners)
	}
	if m.RoleOf(owners[0], key) != shard.RolePrimary {
		t.Fatalf("owner[0] role = %v, want primary", m.RoleOf(owners[0], key))
	}
	for _, r := range owners[1:] {
		if m.RoleOf(r, key) != shard.RoleReplica {
			t.Fatalf("owner %v role = %v, want replica", r, m.RoleOf(r, key))
		}
	}
	for _, p := range m.Entries {
		if !contains(owners, p.Part) && m.RoleOf(p.Part, key) != shard.RoleNone {
			t.Fatalf("non-owner %v has role %v", p.Part, m.RoleOf(p.Part, key))
		}
	}
}

func contains(ps []types.PartitionID, p types.PartitionID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// TestPeerDeathPromotesReplica is the consistent-hashing property the
// whole failover story rests on: when a primary's partition drops out of
// the view, every one of its keys lands first on the partition that was
// already its replica — the survivor holding the data becomes primary.
func TestPeerDeathPromotesReplica(t *testing.T) {
	before := shard.FromView(view4(1), 2, 64)
	for victim := types.PartitionID(0); victim < 4; victim++ {
		v := view4(2)
		e := v.Entries[victim]
		e.Alive = false
		v.Entries[victim] = e
		after := shard.FromView(v, 2, 64)
		if after.Version <= before.Version {
			t.Fatalf("dead-peer map version %d not newer than %d", after.Version, before.Version)
		}
		for k := 0; k < 128; k++ {
			key := fmt.Sprintf("key-%d", k)
			old := before.Owners(key)
			if old[0] != victim {
				continue
			}
			now := after.Owners(key)
			if now[0] != old[1] {
				t.Fatalf("victim %v key %s: new primary %v, want old replica %v", victim, key, now[0], old[1])
			}
		}
	}
}

// TestViewVersionRace covers the federation.View/shard-map interplay
// during peer death: an instance that adopts views out of order must never
// regress its map, because View.Adopt refuses lower versions and the map
// inherits whatever version the view settles on.
func TestViewVersionRace(t *testing.T) {
	view := view4(3)
	m := shard.FromView(view, 2, 64)

	// A stale push (version 2, victim still alive) must not be adopted.
	stale := view4(2)
	if view.Adopt(stale) {
		t.Fatal("adopted a stale view")
	}
	if again := shard.FromView(view, 2, 64); again.Version != m.Version {
		t.Fatalf("map version moved on a stale push: %d -> %d", m.Version, again.Version)
	}

	// A newer push marking partition 1 dead wins, and the rebuilt map drops it.
	dead := view4(5)
	e := dead.Entries[1]
	e.Alive = false
	dead.Entries[1] = e
	if !view.Adopt(dead) {
		t.Fatal("newer view not adopted")
	}
	m2 := shard.FromView(view, 2, 64)
	if m2.Version != 5 || len(m2.Entries) != 3 {
		t.Fatalf("rebuilt map: version %d entries %d, want 5 and 3", m2.Version, len(m2.Entries))
	}
	if _, ok := m2.Node(1); ok {
		t.Fatal("dead partition still mapped")
	}
}

func TestOwnerAddrsWalksSuccessors(t *testing.T) {
	m := shard.FromView(view4(1), 2, 64)
	key := shard.NodeKey(5)
	addrs := m.OwnerAddrs(key, types.SvcDB)
	if len(addrs) != 4 {
		t.Fatalf("owner addrs = %v, want every partition as fallback", addrs)
	}
	owners := m.Owners(key)
	if n, _ := m.Node(owners[0]); addrs[0].Node != n || addrs[0].Service != types.SvcDB {
		t.Fatalf("addrs[0] = %v, want primary %v/db", addrs[0], n)
	}
	seen := make(map[types.NodeID]bool)
	for _, a := range addrs {
		if seen[a.Node] {
			t.Fatalf("duplicate fallback target %v in %v", a.Node, addrs)
		}
		seen[a.Node] = true
	}
}

func TestEmptyAndDefaultedMap(t *testing.T) {
	var m shard.Map
	if !m.Empty() || m.Owners("k") != nil {
		t.Fatalf("zero map should own nothing: %v", m.Owners("k"))
	}
	if _, ok := m.Primary("k"); ok {
		t.Fatal("zero map has a primary")
	}
	// Zero replica/vnode parameters fall back to usable defaults.
	d := shard.FromView(view4(1), 0, 0)
	if d.Replicas != shard.DefaultReplicas || d.VNodes != shard.DefaultVNodes {
		t.Fatalf("defaults not applied: %+v", d)
	}
	if got := len(d.Owners(shard.NodeKey(1))); got != shard.DefaultReplicas {
		t.Fatalf("owners = %d, want %d", got, shard.DefaultReplicas)
	}
}

// TestIdentifierStrings pins the hot identifier strings, built without fmt.
func TestIdentifierStrings(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{shard.NodeKey(7), "n7"},
		{types.NodeID(7).String(), "node7"},
		{types.NodeID(-1).String(), "node-1"},
		{types.PartitionID(3).String(), "part3"},
	} {
		if tc.got != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
}
