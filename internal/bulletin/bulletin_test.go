package bulletin_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/types"
)

type clientProc struct {
	name   string
	target types.NodeID
	client *bulletin.Client
}

func (p *clientProc) Service() string { return p.name }
func (p *clientProc) OnStop()         {}
func (p *clientProc) Start(h *simhost.Handle) {
	p.client = bulletin.NewClient(h, rpc.Budget(time.Second), func() (types.Addr, bool) {
		return types.Addr{Node: p.target, Service: types.SvcDB}, true
	})
}
func (p *clientProc) Receive(msg types.Message) { p.client.Handle(msg) }

func cfg() bulletin.Config {
	return bulletin.Config{
		FetchTimeout: 200 * time.Millisecond,
		CacheTTL:     time.Second,
		EntryTTL:     time.Minute,
	}
}

// rig: DB instances on nodes 0..2 (partitions 0..2), a client on node 3.
func rig(t *testing.T) (*sim.Engine, []*simhost.Host, []*bulletin.Service, *clientProc) {
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
		svcs[i] = bulletin.NewService(types.PartitionID(i), view, cfg())
		if _, err := hosts[i].Spawn(svcs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cl := &clientProc{name: "q", target: 0}
	if _, err := hosts[3].Spawn(cl); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(500 * time.Millisecond)
	return eng, hosts, svcs, cl
}

func put(eng *sim.Engine, cl *clientProc, res types.ResourceStats) {
	cl.client.ExportResources(res)
	eng.RunFor(50 * time.Millisecond)
}

func query(eng *sim.Engine, cl *clientProc, scope bulletin.Scope) (bulletin.QueryAck, bool) {
	var got *bulletin.QueryAck
	cl.client.Query(scope, func(ack bulletin.QueryAck, ok bool) {
		if ok {
			got = &ack
		}
	})
	eng.RunFor(1500 * time.Millisecond)
	if got == nil {
		return bulletin.QueryAck{}, false
	}
	return *got, true
}

func TestPutAndPartitionQuery(t *testing.T) {
	eng, _, svcs, cl := rig(t)
	put(eng, cl, types.ResourceStats{Node: 3, CPUPct: 42, Collected: eng.Now()})
	if svcs[0].Entries() != 1 {
		t.Fatalf("entries = %d", svcs[0].Entries())
	}
	ack, ok := query(eng, cl, bulletin.ScopePartition)
	if !ok || len(ack.Snapshots) != 1 {
		t.Fatalf("partition query: %+v ok=%v", ack, ok)
	}
	if len(ack.Snapshots[0].Res) != 1 || ack.Snapshots[0].Res[0].CPUPct != 42 {
		t.Fatalf("snapshot: %+v", ack.Snapshots[0])
	}
}

func TestClusterQueryScatterGathers(t *testing.T) {
	eng, hosts, _, cl := rig(t)
	// Feed each instance directly via per-instance clients.
	for i := 0; i < 3; i++ {
		c := &clientProc{name: "feeder", target: types.NodeID(i)}
		if _, err := hosts[i].Spawn(c); err != nil {
			t.Fatal(err)
		}
		eng.RunFor(200 * time.Millisecond)
		c.client.ExportResources(types.ResourceStats{Node: types.NodeID(i), CPUPct: float64(10 * (i + 1)), Collected: eng.Now()})
	}
	eng.RunFor(200 * time.Millisecond)
	ack, ok := query(eng, cl, bulletin.ScopeCluster)
	if !ok || len(ack.Snapshots) != 3 || len(ack.Missing) != 0 {
		t.Fatalf("cluster query: snaps=%d missing=%v", len(ack.Snapshots), ack.Missing)
	}
	agg := bulletin.AggregateSnapshots(ack.Snapshots)
	if agg.Nodes != 3 || agg.AvgCPUPct != 20 {
		t.Fatalf("aggregate: %+v", agg)
	}
}

func TestMissingPeerReported(t *testing.T) {
	eng, hosts, _, cl := rig(t)
	hosts[2].PowerOff()
	ack, ok := query(eng, cl, bulletin.ScopeCluster)
	if !ok {
		t.Fatal("no answer")
	}
	if len(ack.Missing) != 1 || ack.Missing[0] != 2 {
		t.Fatalf("missing = %v, want [part2]", ack.Missing)
	}
	if len(ack.Snapshots) != 2 {
		t.Fatalf("snapshots = %d", len(ack.Snapshots))
	}
}

func TestCacheServesRepeatQueries(t *testing.T) {
	eng, _, _, cl := rig(t)
	first, ok := query(eng, cl, bulletin.ScopeCluster)
	if !ok || first.Stale {
		t.Fatalf("first query: %+v", first)
	}
	second, ok := query(eng, cl, bulletin.ScopeCluster)
	if !ok {
		t.Fatal("no second answer")
	}
	// Repeated hot queries rotate across the mapped instances (the client
	// adopted the shard map from the first ack); each instance warms its
	// own read-through cache, so within a burst the rotation comes back
	// around to warm caches and serves from them.
	var acks []bulletin.QueryAck
	for i := 0; i < 6; i++ {
		cl.client.Query(bulletin.ScopeCluster, func(ack bulletin.QueryAck, ok bool) {
			if ok {
				acks = append(acks, ack)
			}
		})
		eng.RunFor(250 * time.Millisecond)
	}
	if len(acks) != 6 {
		t.Fatalf("answered %d/6 burst queries", len(acks))
	}
	stale := 0
	for _, a := range acks {
		if a.Stale {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no burst query was served from a read-through cache")
	}
	_ = second
}

func TestEntryTTLExpiresStaleSamples(t *testing.T) {
	eng, _, _, cl := rig(t)
	put(eng, cl, types.ResourceStats{Node: 3, CPUPct: 42, Collected: eng.Now()})
	eng.RunFor(2 * time.Minute) // beyond the 1-minute entry TTL
	ack, ok := query(eng, cl, bulletin.ScopePartition)
	if !ok {
		t.Fatal("no answer")
	}
	if len(ack.Snapshots[0].Res) != 0 {
		t.Fatalf("stale sample survived TTL: %+v", ack.Snapshots[0].Res)
	}
}

func TestAppStateLifecycle(t *testing.T) {
	eng, _, _, cl := rig(t)
	cl.client.ExportApp(types.AppState{Node: 3, Name: "job/9", Alive: true, Updated: eng.Now()})
	eng.RunFor(100 * time.Millisecond)
	ack, _ := query(eng, cl, bulletin.ScopePartition)
	if len(ack.Snapshots[0].Apps) != 1 {
		t.Fatalf("apps = %+v", ack.Snapshots[0].Apps)
	}
	// A dead app is removed.
	cl.client.ExportApp(types.AppState{Node: 3, Name: "job/9", Alive: false, Updated: eng.Now()})
	eng.RunFor(2 * time.Second) // let the query cache expire
	ack, _ = query(eng, cl, bulletin.ScopePartition)
	if len(ack.Snapshots[0].Apps) != 0 {
		t.Fatalf("dead app still listed: %+v", ack.Snapshots[0].Apps)
	}
}

// appNames lists the app rows of a partition query's snapshot, sorted.
func appNames(t *testing.T, eng *sim.Engine, cl *clientProc) []string {
	t.Helper()
	ack, ok := query(eng, cl, bulletin.ScopePartition)
	if !ok {
		t.Fatal("no answer")
	}
	var names []string
	for _, a := range ack.Snapshots[0].Apps {
		names = append(names, fmt.Sprintf("%d/%s", a.Node, a.Name))
	}
	slices.Sort(names)
	return names
}

// An app row is exported once, at its start; it stays listed past the
// entry TTL for as long as its node keeps reporting a busy runqueue.
func TestAppRowOutlivesEntryTTLWhileNodeReports(t *testing.T) {
	eng, _, _, cl := rig(t)
	cl.client.ExportApp(types.AppState{Node: 3, Name: "job/9", Alive: true, Updated: eng.Now()})
	for i := 0; i < 6; i++ { // two minutes, twice the entry TTL
		put(eng, cl, types.ResourceStats{Node: 3, RunQ: 1, Collected: eng.Now()})
		eng.RunFor(20 * time.Second)
	}
	if got := appNames(t, eng, cl); !slices.Equal(got, []string{"3/job/9"}) {
		t.Fatalf("apps = %v, want the running job still listed", got)
	}
}

// An idle sample (RunQ 0) drops its node's app rows stamped before it and
// no others: not a later row of the same node, not another node's rows.
func TestIdleSampleDropsOlderAppRows(t *testing.T) {
	eng, _, _, cl := rig(t)
	t0 := eng.Now()
	for _, a := range []types.AppState{
		{Node: 3, Name: "job/1", Alive: true, Updated: t0},
		{Node: 3, Name: "job/2", Alive: true, Updated: t0.Add(2 * time.Second)},
		{Node: 4, Name: "job/3", Alive: true, Updated: t0},
	} {
		cl.client.ExportApp(a)
	}
	eng.RunFor(100 * time.Millisecond)
	put(eng, cl, types.ResourceStats{Node: 3, RunQ: 0, Collected: t0.Add(time.Second)})
	if got := appNames(t, eng, cl); !slices.Equal(got, []string{"3/job/2", "4/job/3"}) {
		t.Fatalf("apps = %v, want [3/job/2 4/job/3]", got)
	}
}

// A resource row older than the entry TTL hides its node's app rows with
// it; a node that never sent a resource row keeps its rows listed.
func TestStaleResourceRowHidesAppRows(t *testing.T) {
	eng, _, _, cl := rig(t)
	put(eng, cl, types.ResourceStats{Node: 3, RunQ: 1, Collected: eng.Now()})
	cl.client.ExportApp(types.AppState{Node: 3, Name: "job/1", Alive: true, Updated: eng.Now()})
	cl.client.ExportApp(types.AppState{Node: 5, Name: "job/2", Alive: true, Updated: eng.Now()})
	eng.RunFor(100 * time.Millisecond)
	if got := appNames(t, eng, cl); !slices.Equal(got, []string{"3/job/1", "5/job/2"}) {
		t.Fatalf("apps while fresh = %v", got)
	}
	eng.RunFor(2 * time.Minute) // beyond the 1-minute entry TTL
	if got := appNames(t, eng, cl); !slices.Equal(got, []string{"5/job/2"}) {
		t.Fatalf("apps after node 3's row went stale = %v, want [5/job/2]", got)
	}
}

func TestAggregateEmpty(t *testing.T) {
	agg := bulletin.AggregateSnapshots(nil)
	if agg.Nodes != 0 || agg.AvgCPUPct != 0 {
		t.Fatalf("empty aggregate: %+v", agg)
	}
}
