package bulletin_test

import (
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/federation"
	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/types"
)

// pusherProc injects federation view pushes, standing in for the GSD.
type pusherProc struct{ h *simhost.Handle }

func (p *pusherProc) Service() string           { return "pusher" }
func (p *pusherProc) OnStop()                   {}
func (p *pusherProc) Start(h *simhost.Handle)   { p.h = h }
func (p *pusherProc) Receive(msg types.Message) {}
func (p *pusherProc) push(to types.Addr, v federation.View) {
	p.h.Send(to, types.AnyNIC, federation.MsgView, federation.ViewMsg{View: v})
}

func shardCfg() bulletin.Config {
	c := cfg()
	c.DeltaFlush = 100 * time.Millisecond
	return c
}

// gossipFor is the rig's gossip instance for one partition: fast rounds,
// default fanout (with two peers, every round reaches both).
func gossipFor(part types.PartitionID, view federation.View) *gossip.Service {
	return gossip.NewService(part, view, gossip.Config{Interval: 50 * time.Millisecond, Seed: int64(part) + 1})
}

// shardRig: full data-plane topology — DB + gossip instances on nodes
// 0..2 (partitions 0..2), client and pusher on node 3.
func shardRig(t *testing.T) (*sim.Engine, []*simhost.Host, []*bulletin.Service, *clientProc, *pusherProc, federation.View) {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, eng.Rand(), 4, simnet.DefaultParams(), metrics.NewRegistry())
	view := federation.NewView(map[types.PartitionID]types.NodeID{0: 0, 1: 1, 2: 2})
	hosts := make([]*simhost.Host, 4)
	for i := range hosts {
		hosts[i] = simhost.New(types.NodeID(i), net, eng, eng.Rand(), simhost.DefaultCosts())
	}
	svcs := make([]*bulletin.Service, 3)
	for i := 0; i < 3; i++ {
		svcs[i] = bulletin.NewService(types.PartitionID(i), view, shardCfg())
		if _, err := hosts[i].Spawn(svcs[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := hosts[i].Spawn(gossipFor(types.PartitionID(i), view)); err != nil {
			t.Fatal(err)
		}
	}
	cl := &clientProc{name: "q", target: 0}
	if _, err := hosts[3].Spawn(cl); err != nil {
		t.Fatal(err)
	}
	pusher := &pusherProc{}
	if _, err := hosts[3].Spawn(pusher); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second) // initial syncs settle
	return eng, hosts, svcs, cl, pusher, view
}

func putAcked(t *testing.T, eng *sim.Engine, cl *clientProc, res types.ResourceStats) {
	t.Helper()
	okc := 0
	cl.client.PutRes(res, func(ok bool) {
		if ok {
			okc++
		}
	})
	eng.RunFor(300 * time.Millisecond)
	if okc != 1 {
		t.Fatalf("acked write for %v not confirmed", res.Node)
	}
}

func get(t *testing.T, eng *sim.Engine, cl *clientProc, n types.NodeID) bulletin.GetAck {
	t.Helper()
	var got *bulletin.GetAck
	cl.client.Get(n, func(ack bulletin.GetAck, ok bool) {
		if ok {
			got = &ack
		}
	})
	eng.RunFor(1500 * time.Millisecond)
	if got == nil {
		t.Fatalf("get %v failed", n)
	}
	return *got
}

// TestShardedWritesReplicateAndSpreadReads is the data plane end to end:
// acked writes land at key primaries, deltas flush through the gossip
// plane to replicas, and keyed reads fan out across copy holders.
func TestShardedWritesReplicateAndSpreadReads(t *testing.T) {
	eng, _, svcs, cl, _, _ := shardRig(t)
	for n := types.NodeID(0); n < 4; n++ {
		putAcked(t, eng, cl, types.ResourceStats{Node: n, CPUPct: float64(10 * (int(n) + 1)), Collected: eng.Now()})
	}
	if cl.client.Map().Empty() {
		t.Fatal("client never adopted a shard map")
	}
	eng.RunFor(time.Second) // delta flush + fan-out
	var deltasIn, replicaRows uint64
	for _, s := range svcs {
		st := s.Stats()
		deltasIn += st.DeltasIn
		replicaRows += uint64(st.ReplicaRows)
	}
	if deltasIn == 0 {
		t.Fatal("no delta batches propagated through the gossip plane")
	}
	if replicaRows == 0 {
		t.Fatal("no replica rows: writes did not replicate")
	}
	for round := 0; round < 3; round++ {
		for n := types.NodeID(0); n < 4; n++ {
			ack := get(t, eng, cl, n)
			if !ack.Found || ack.Res.CPUPct != float64(10*(int(n)+1)) {
				t.Fatalf("get %v: %+v", n, ack)
			}
		}
	}
	if len(cl.client.ServedBy()) < 2 {
		t.Fatalf("reads served by %v, want ≥2 distinct peers", cl.client.ServedBy())
	}
}

// TestWrongShardReroutesWithoutFailure covers the stale-read guard on
// shard handoff: after a view push reassigns ownership, an instance that
// lost a range refuses keyed requests, and a client holding the old map is
// rerouted (adopt newer map, retry) without ever seeing a failure.
func TestWrongShardReroutesWithoutFailure(t *testing.T) {
	eng, _, svcs, cl, pusher, view := shardRig(t)
	for n := types.NodeID(0); n < 4; n++ {
		putAcked(t, eng, cl, types.ResourceStats{Node: n, CPUPct: 5, Collected: eng.Now()})
	}
	eng.RunFor(time.Second)
	oldVersion := cl.client.Map().Version

	// Partition 0's instance drops out of the map (its node stays up, so
	// it keeps answering — with refusals).
	v2 := view.Clone()
	v2.Version++
	e := v2.Entries[0]
	e.Alive = false
	v2.Entries[0] = e
	for i := 0; i < 3; i++ {
		pusher.push(types.Addr{Node: types.NodeID(i), Service: types.SvcDB}, v2)
	}
	eng.RunFor(time.Second) // rebuild + re-sync among survivors

	// The client still holds the old map: some reads land on the demoted
	// instance and must be rerouted, none may fail.
	for round := 0; round < 2; round++ {
		for n := types.NodeID(0); n < 4; n++ {
			ack := get(t, eng, cl, n)
			if !ack.Found {
				t.Fatalf("get %v lost after handoff: %+v", n, ack)
			}
		}
	}
	if cl.client.Map().Version <= oldVersion {
		t.Fatalf("client map stuck at version %d", cl.client.Map().Version)
	}
	var wrong uint64
	for _, s := range svcs {
		wrong += s.Stats().WrongShard
	}
	if wrong == 0 || cl.client.Rerouted() == 0 {
		t.Fatalf("handoff invisible: wrong=%d rerouted=%d, want both > 0", wrong, cl.client.Rerouted())
	}
}

// TestMigratedPrimaryFreshStreamAccepted pins delta stream identity
// across a migration: a replacement instance on a new node restarts its
// flush stream at sequence 1, and peers must treat the moved partition as
// a new source — not shadow the fresh batches behind the dead host's
// higher applied sequence.
func TestMigratedPrimaryFreshStreamAccepted(t *testing.T) {
	eng, hosts, svcs, cl, pusher, view := shardRig(t)
	// Enough keyed writes, spread across flush windows, that partition 1
	// flushes several delta batches everyone records.
	for i := 0; i < 3; i++ {
		for n := types.NodeID(0); n < 12; n++ {
			putAcked(t, eng, cl, types.ResourceStats{Node: n, CPUPct: float64(i + 1), Collected: eng.Now()})
		}
		eng.RunFor(500 * time.Millisecond)
	}
	before := svcs[0].AppliedSeq(1)
	if before < 2 {
		t.Fatalf("rig applied only seq %d from partition 1, want ≥2", before)
	}

	// Partition 1's instance dies; its replacement comes up on node 3
	// (with a fresh gossip instance to submit through) and the view moves
	// with it.
	if err := hosts[1].Kill(types.SvcDB); err != nil {
		t.Fatal(err)
	}
	v2 := view.Clone()
	v2.Version++
	e := v2.Entries[1]
	e.Node = 3
	v2.Entries[1] = e
	if _, err := hosts[3].Spawn(gossipFor(1, v2)); err != nil {
		t.Fatal(err)
	}
	repl := bulletin.NewService(1, v2, shardCfg())
	if _, err := hosts[3].Spawn(repl); err != nil {
		t.Fatal(err)
	}
	for _, n := range []types.NodeID{0, 2} {
		pusher.push(types.Addr{Node: n, Service: types.SvcDB}, v2)
		pusher.push(types.Addr{Node: n, Service: types.SvcGossip}, v2)
	}
	eng.RunFor(time.Second)

	// New writes make the replacement flush batches numbered from 1.
	for n := types.NodeID(0); n < 12; n++ {
		putAcked(t, eng, cl, types.ResourceStats{Node: n, CPUPct: 99, Collected: eng.Now()})
	}
	eng.RunFor(time.Second)
	after := svcs[0].AppliedSeq(1)
	if after == 0 || after >= before {
		t.Fatalf("replacement's fresh stream ignored: applied seq %d (dead host's stream ended at %d)",
			after, before)
	}
}

// TestReplicaServesWhilePrimaryDead: with the primary's host powered off
// and no view change yet, reads keep succeeding — retries and the opened
// breaker route them to the surviving replica (shard-level promotion ahead
// of the federation's own failover).
func TestReplicaServesWhilePrimaryDead(t *testing.T) {
	eng, hosts, _, cl, _, _ := shardRig(t)
	for n := types.NodeID(0); n < 4; n++ {
		putAcked(t, eng, cl, types.ResourceStats{Node: n, CPUPct: 7, Collected: eng.Now()})
	}
	eng.RunFor(time.Second)
	m := cl.client.Map()
	// Find a node whose key primary is partition 0 (node 0).
	var victim types.NodeID = -1
	for n := types.NodeID(0); n < 4; n++ {
		if p, ok := m.Primary(shard.NodeKey(n)); ok && p == 0 {
			victim = n
			break
		}
	}
	if victim < 0 {
		t.Skip("no key owned by partition 0 in this ring")
	}
	hosts[0].PowerOff()
	for i := 0; i < 4; i++ {
		ack := get(t, eng, cl, victim)
		if !ack.Found || ack.Res.CPUPct != 7 {
			t.Fatalf("read %d of %v with dead primary: %+v", i, victim, ack)
		}
		if ack.Primary {
			t.Fatalf("dead primary answered read %d", i)
		}
	}
}

// TestDeltaInvalidatesReadThroughCache: a cached cluster-query snapshot is
// dropped when a delta proves one of its rows stale.
func TestDeltaInvalidatesReadThroughCache(t *testing.T) {
	eng, hosts, svcs, cl, _, _ := shardRig(t)
	// Home-store a sample for node 1 at instance 1 (its partition).
	feeder := &clientProc{name: "feeder", target: 1}
	if _, err := hosts[1].Spawn(feeder); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(200 * time.Millisecond)
	feeder.client.ExportResources(types.ResourceStats{Node: 1, CPUPct: 30, Collected: eng.Now()})
	eng.RunFor(200 * time.Millisecond)
	// Warm instance 0's cache (fresh client, empty map: pinned to node 0).
	warm := &clientProc{name: "warm", target: 0}
	if _, err := hosts[3].Spawn(warm); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(200 * time.Millisecond)
	var ok0 bool
	warm.client.Query(bulletin.ScopeCluster, func(ack bulletin.QueryAck, ok bool) { ok0 = ok })
	eng.RunFor(time.Second)
	if !ok0 {
		t.Fatal("warming query failed")
	}
	before := svcs[0].Stats().CacheInvalidations
	// An acked write for node 1 flows primary -> delta -> instance 0.
	putAcked(t, eng, cl, types.ResourceStats{Node: 1, CPUPct: 60, Collected: eng.Now()})
	eng.RunFor(time.Second)
	if after := svcs[0].Stats().CacheInvalidations; after <= before {
		t.Fatalf("cache not invalidated by delta: %d -> %d", before, after)
	}
}
