package pws_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pws"
	"repro/internal/rpc"
	"repro/internal/types"
)

// rig builds a small cluster with a PWS scheduler on partition 0 and a
// client process on a compute node of partition 1.
func rig(t *testing.T, pools []pws.PoolSpec, useBulletin bool) (*cluster.Cluster, *pws.Scheduler, *pws.Client, *core.ClientProc) {
	t.Helper()
	spec := cluster.Small()
	spec.ExtraServices = map[types.PartitionID][]string{0: {types.SvcPWS}}
	c, err := cluster.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pools == nil {
		pools = pws.UniformPools(c, 2)
	}
	sched, err := pws.Deploy(c, pws.Spec{
		Partition:   0,
		Pools:       pools,
		SchedPeriod: time.Second,
		UseBulletin: useBulletin,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.WarmUp()

	var client *pws.Client
	proc := core.NewClientProc("submit", 1, c.Topo.Partitions[1].Server)
	proc.OnStart = func(cp *core.ClientProc) {
		client = pws.NewClient(cp.H, rpc.Budget(3*time.Second), func() (types.Addr, bool) {
			return types.Addr{Node: c.Kernel.ServerNode(0), Service: types.SvcPWS}, true
		})
	}
	proc.OnMessage = func(cp *core.ClientProc, msg types.Message) {
		client.Handle(msg)
	}
	if _, err := c.Host(c.Topo.Partitions[1].Members[3]).Spawn(proc); err != nil {
		t.Fatal(err)
	}
	c.RunFor(500 * time.Millisecond)
	return c, sched, client, proc
}

func stat(t *testing.T, c *cluster.Cluster, client *pws.Client) pws.StatAck {
	t.Helper()
	var got *pws.StatAck
	client.Stat(func(ack pws.StatAck, ok bool) {
		if ok {
			got = &ack
		}
	})
	c.RunFor(time.Second)
	if got == nil {
		t.Fatal("no stat answer")
	}
	return *got
}

func TestSubmitRunComplete(t *testing.T) {
	c, _, client, _ := rig(t, nil, false)
	var acks []pws.SubmitAck
	for i := 0; i < 3; i++ {
		client.Submit(pws.Job{Pool: "pool0", Name: "j", Duration: 2 * time.Second, Width: 2},
			func(ack pws.SubmitAck) { acks = append(acks, ack) })
	}
	c.RunFor(time.Second)
	if len(acks) != 3 {
		t.Fatalf("acks = %d", len(acks))
	}
	for _, a := range acks {
		if !a.OK || a.ID == 0 {
			t.Fatalf("submit ack: %+v", a)
		}
	}
	st := stat(t, c, client)
	if st.Running != 3 {
		t.Fatalf("running = %d, want 3 (pool0 has enough nodes)", st.Running)
	}
	c.RunFor(5 * time.Second)
	st = stat(t, c, client)
	if st.Completed != 3 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("final stat: %+v", st)
	}
}

func TestUnknownPoolRejected(t *testing.T) {
	c, _, client, _ := rig(t, nil, false)
	var ack *pws.SubmitAck
	client.Submit(pws.Job{Pool: "nope"}, func(a pws.SubmitAck) { ack = &a })
	c.RunFor(time.Second)
	if ack == nil || ack.OK {
		t.Fatalf("unknown pool accepted: %+v", ack)
	}
}

func TestFIFOHeadBlocks(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "pool0", Nodes: []types.NodeID{3, 4, 5}, Policy: pws.PolicyFIFO}}
	c, _, client, _ := rig(t, pools, false)
	poolSize := 3
	// A job as wide as the pool, then a huge job, then a small one: FIFO
	// keeps the small one queued behind the infeasible-for-now head.
	client.Submit(pws.Job{Pool: "pool0", Duration: 3 * time.Second, Width: poolSize}, nil)
	c.RunFor(100 * time.Millisecond)
	client.Submit(pws.Job{Pool: "pool0", Duration: time.Second, Width: poolSize}, nil)
	client.Submit(pws.Job{Pool: "pool0", Duration: time.Second, Width: 1}, nil)
	c.RunFor(time.Second)
	st := stat(t, c, client)
	if st.Running != 1 || st.Queued != 2 {
		t.Fatalf("FIFO stat: %+v", st)
	}
	c.RunFor(10 * time.Second)
	st = stat(t, c, client)
	if st.Completed != 3 {
		t.Fatalf("completed = %d, want 3", st.Completed)
	}
}

func TestPriorityPolicy(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "p", Nodes: []types.NodeID{3, 4}, Policy: pws.PolicyPriority}}
	c, _, client, _ := rig(t, pools, false)
	// Fill both nodes, then queue low before high priority.
	client.Submit(pws.Job{Pool: "p", Duration: 2 * time.Second, Width: 2}, nil)
	c.RunFor(200 * time.Millisecond)
	var lowID, highID types.JobID
	client.Submit(pws.Job{Pool: "p", Duration: time.Second, Width: 2, Priority: 1},
		func(a pws.SubmitAck) { lowID = a.ID })
	client.Submit(pws.Job{Pool: "p", Duration: time.Second, Width: 2, Priority: 9},
		func(a pws.SubmitAck) { highID = a.ID })
	// Track which starts first via job events.
	var started []string
	sink := core.NewClientProc("evsink", 1, c.Topo.Partitions[1].Server)
	sink.OnStart = func(cp *core.ClientProc) {
		cp.Events.Subscribe([]types.EventType{types.EvJobStart}, -1, "", func(ev types.Event) {
			started = append(started, ev.Detail)
		}, nil)
	}
	if _, err := c.Host(c.Topo.Partitions[1].Members[4]).Spawn(sink); err != nil {
		t.Fatal(err)
	}
	c.RunFor(8 * time.Second)
	if lowID == 0 || highID == 0 {
		t.Fatal("submissions not acked")
	}
	// Find the order of the two queued jobs among start events.
	idxOf := func(id types.JobID) int {
		for i, d := range started {
			var got types.JobID
			if _, err := fmt.Sscanf(d, "job %d", &got); err == nil && got == id {
				return i
			}
		}
		return -1
	}
	li, hi := idxOf(lowID), idxOf(highID)
	if li < 0 || hi < 0 {
		t.Fatalf("job starts not observed: %v", started)
	}
	if hi > li {
		t.Fatalf("high priority started after low: %v", started)
	}
}

func TestBackfillPolicy(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "p", Nodes: []types.NodeID{3, 4, 5}, Policy: pws.PolicyBackfill}}
	c, _, client, _ := rig(t, pools, false)
	// Occupy two nodes; head job needs 3 (doesn't fit), a 1-wide job
	// behind it backfills onto the free node.
	client.Submit(pws.Job{Pool: "p", Duration: 4 * time.Second, Width: 2}, nil)
	c.RunFor(200 * time.Millisecond)
	client.Submit(pws.Job{Pool: "p", Duration: time.Second, Width: 3}, nil)
	client.Submit(pws.Job{Pool: "p", Duration: 2 * time.Second, Width: 1}, nil)
	c.RunFor(time.Second)
	st := stat(t, c, client)
	if st.Running != 2 || st.Queued != 1 {
		t.Fatalf("backfill stat: %+v (want the 1-wide job running)", st)
	}
	c.RunFor(10 * time.Second)
	if st := stat(t, c, client); st.Completed != 3 {
		t.Fatalf("completed = %d", st.Completed)
	}
}

func TestLeasingBetweenPools(t *testing.T) {
	nodes := []types.NodeID{3, 4, 5, 6}
	pools := []pws.PoolSpec{
		{Name: "a", Nodes: nodes[:2], Policy: pws.PolicyFIFO, AllowLease: true},
		{Name: "b", Nodes: nodes[2:], Policy: pws.PolicyFIFO, AllowLease: true},
	}
	c, _, client, _ := rig(t, pools, false)
	// Pool a's job needs 4 nodes — more than it owns; pool b is idle and
	// lends its two.
	client.Submit(pws.Job{Pool: "a", Duration: 2 * time.Second, Width: 4}, nil)
	c.RunFor(1500 * time.Millisecond)
	st := stat(t, c, client)
	if st.Running != 1 {
		t.Fatalf("leased job not running: %+v", st)
	}
	var b pws.PoolStat
	for _, ps := range st.Pools {
		if ps.Name == "b" {
			b = ps
		}
	}
	if b.Leased != 2 {
		t.Fatalf("pool b leased = %d, want 2", b.Leased)
	}
	c.RunFor(5 * time.Second)
	st = stat(t, c, client)
	if st.Completed != 1 {
		t.Fatalf("leased job never completed: %+v", st)
	}
	for _, ps := range st.Pools {
		if ps.Leased != 0 {
			t.Fatalf("leases not returned: %+v", st.Pools)
		}
	}
}

func TestNodeFailureRequeuesJob(t *testing.T) {
	c, _, client, _ := rig(t, nil, false)
	client.Submit(pws.Job{Pool: "pool0", Duration: 30 * time.Second, Width: 2}, nil)
	c.RunFor(time.Second)
	st := stat(t, c, client)
	if st.Running != 1 {
		t.Fatalf("job not running: %+v", st)
	}
	// Kill one of the pool0 nodes hosting the job.
	var victim types.NodeID = -1
	for _, n := range pws.UniformPools(c, 2)[0].Nodes {
		if c.Host(n).Present("job/1") {
			victim = n
			break
		}
	}
	if victim < 0 {
		t.Fatal("no node hosts job/1")
	}
	c.Host(victim).PowerOff()
	c.RunFor(10 * time.Second)
	st = stat(t, c, client)
	if st.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1: %+v", st.Requeued, st)
	}
	// The job restarts on healthy nodes and eventually completes.
	c.RunFor(40 * time.Second)
	st = stat(t, c, client)
	if st.Completed != 1 {
		t.Fatalf("job never completed after requeue: %+v", st)
	}
}

func TestSchedulerKillRestartKeepsQueue(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "pool0", Nodes: []types.NodeID{3, 4, 5}, Policy: pws.PolicyFIFO}}
	c, _, client, _ := rig(t, pools, false)
	// Saturate pool0 so some jobs stay queued, then kill the scheduler.
	poolNodes := 3
	for i := 0; i < 3; i++ {
		client.Submit(pws.Job{Pool: "pool0", Duration: 20 * time.Second, Width: poolNodes}, nil)
	}
	c.RunFor(time.Second)
	st := stat(t, c, client)
	if st.Running != 1 || st.Queued != 2 {
		t.Fatalf("pre-kill stat: %+v", st)
	}
	server := c.Topo.Partitions[0].Server
	if err := c.Host(server).Kill(types.SvcPWS); err != nil {
		t.Fatal(err)
	}
	// The GSD detects the death at its next local check and restarts the
	// scheduler, which restores its queues from the checkpoint service.
	c.RunFor(5 * time.Second)
	if !c.Host(server).Running(types.SvcPWS) {
		t.Fatal("scheduler not restarted by the GSD")
	}
	st = stat(t, c, client)
	if st.Queued != 2 {
		t.Fatalf("queue lost across restart: %+v", st)
	}
	// Everything still completes (the restarted scheduler reconciles the
	// running job through PPM queries).
	c.RunFor(80 * time.Second)
	st = stat(t, c, client)
	if st.Completed != 3 {
		t.Fatalf("completed = %d, want 3: %+v", st.Completed, st)
	}
}

func TestSchedulerMigratesWithServerNode(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "pool0", Nodes: []types.NodeID{11, 12, 13}, Policy: pws.PolicyFIFO}}
	c, _, client, _ := rig(t, pools, false)
	poolNodes := 3
	for i := 0; i < 2; i++ {
		client.Submit(pws.Job{Pool: "pool0", Duration: 25 * time.Second, Width: poolNodes}, nil)
	}
	c.RunFor(time.Second)
	part := c.Topo.Partitions[0]
	c.Host(part.Server).PowerOff()
	c.RunFor(15 * time.Second)
	backup := part.Backups[0]
	if !c.Host(backup).Running(types.SvcPWS) {
		t.Fatal("scheduler did not migrate to the backup node")
	}
	st := stat(t, c, client)
	if st.Queued+st.Running+st.Completed != 2 {
		t.Fatalf("jobs lost in migration: %+v", st)
	}
	c.RunFor(90 * time.Second)
	st = stat(t, c, client)
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2: %+v", st.Completed, st)
	}
}

// TestBulletinDrivenScheduling: the scheduler reads the bulletin
// federation once per period, however many submits and completions
// trigger a scheduling pass meanwhile.
func TestBulletinDrivenScheduling(t *testing.T) {
	c, sched, client, _ := rig(t, nil, true)
	const jobs, window, period = 10, 5 * time.Second, time.Second
	q0 := sched.BulletinQueries
	for i := 0; i < jobs; i++ {
		client.Submit(pws.Job{Pool: "pool0", Duration: time.Second, Width: 1}, nil)
		c.RunFor(window / jobs)
	}
	queries := sched.BulletinQueries - q0
	if queries == 0 {
		t.Fatal("bulletin-driven scheduler issued no federation queries")
	}
	if limit := uint64(window/period) + 1; queries > limit {
		t.Fatalf("%d federation queries for %d submits over %v, want at most %d (one per period)", queries, jobs, window, limit)
	}
	c.RunFor(2 * time.Second)
	st := stat(t, c, client)
	if st.Completed != jobs {
		t.Fatalf("jobs incomplete: %+v", st)
	}
}

func TestDeleteQueuedJob(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "p", Nodes: []types.NodeID{3, 4}, Policy: pws.PolicyFIFO}}
	c, _, client, _ := rig(t, pools, false)
	// Fill the pool, then queue a second job and delete it.
	client.Submit(pws.Job{Pool: "p", Duration: 10 * time.Second, Width: 2}, nil)
	c.RunFor(500 * time.Millisecond)
	var queuedID types.JobID
	client.Submit(pws.Job{Pool: "p", Duration: 10 * time.Second, Width: 2},
		func(a pws.SubmitAck) { queuedID = a.ID })
	c.RunFor(500 * time.Millisecond)
	var del *pws.DeleteAck
	client.Delete(queuedID, func(a pws.DeleteAck) { del = &a })
	c.RunFor(time.Second)
	if del == nil || !del.OK {
		t.Fatalf("delete ack: %+v", del)
	}
	st := stat(t, c, client)
	if st.Queued != 0 || st.Deleted != 1 {
		t.Fatalf("stat after delete: %+v", st)
	}
	// Deleting an unknown job fails.
	del = nil
	client.Delete(999, func(a pws.DeleteAck) { del = &a })
	c.RunFor(time.Second)
	if del == nil || del.OK {
		t.Fatalf("delete of unknown job: %+v", del)
	}
}

func TestDeleteRunningJobFreesNodes(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "p", Nodes: []types.NodeID{3, 4}, Policy: pws.PolicyFIFO}}
	c, _, client, _ := rig(t, pools, false)
	var id types.JobID
	client.Submit(pws.Job{Pool: "p", Duration: time.Hour, Width: 2},
		func(a pws.SubmitAck) { id = a.ID })
	c.RunFor(time.Second)
	if !c.Host(3).Present("job/1") && !c.Host(4).Present("job/1") {
		t.Fatal("job not running")
	}
	client.Delete(id, nil)
	c.RunFor(2 * time.Second)
	if c.Host(3).Present("job/1") || c.Host(4).Present("job/1") {
		t.Fatal("job slices survived deletion")
	}
	st := stat(t, c, client)
	if st.Running != 0 || st.Deleted != 1 {
		t.Fatalf("stat: %+v", st)
	}
	// Freed nodes run the next job.
	client.Submit(pws.Job{Pool: "p", Duration: time.Second, Width: 2}, nil)
	c.RunFor(5 * time.Second)
	if st := stat(t, c, client); st.Completed != 1 {
		t.Fatalf("freed nodes unusable: %+v", st)
	}
}

func TestWalltimeEnforced(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "p", Nodes: []types.NodeID{3, 4}, Policy: pws.PolicyFIFO}}
	c, _, client, _ := rig(t, pools, false)
	var id types.JobID
	client.Submit(pws.Job{Pool: "p", Duration: time.Hour, Width: 1, Walltime: 5 * time.Second},
		func(a pws.SubmitAck) { id = a.ID })
	c.RunFor(2 * time.Second)
	var js *pws.JobStatAck
	client.JobStat(id, func(a pws.JobStatAck, ok bool) {
		if ok {
			js = &a
		}
	})
	c.RunFor(time.Second)
	if js == nil || js.State != pws.StateRunning || len(js.Nodes) != 1 {
		t.Fatalf("jobstat while running: %+v", js)
	}
	c.RunFor(10 * time.Second)
	st := stat(t, c, client)
	if st.TimedOut != 1 || st.Running != 0 {
		t.Fatalf("walltime not enforced: %+v", st)
	}
	js = nil
	client.JobStat(id, func(a pws.JobStatAck, ok bool) {
		if ok {
			js = &a
		}
	})
	c.RunFor(time.Second)
	if js == nil || js.State != pws.StateTimeout {
		t.Fatalf("jobstat after timeout: %+v", js)
	}
	// A job finishing within its walltime is untouched.
	client.Submit(pws.Job{Pool: "p", Duration: time.Second, Width: 1, Walltime: time.Minute}, nil)
	c.RunFor(5 * time.Second)
	if st := stat(t, c, client); st.Completed != 1 || st.TimedOut != 1 {
		t.Fatalf("in-walltime job: %+v", st)
	}
}

func TestJobStatLifecycle(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "p", Nodes: []types.NodeID{3}, Policy: pws.PolicyFIFO}}
	c, _, client, _ := rig(t, pools, false)
	var first, second types.JobID
	client.Submit(pws.Job{Pool: "p", Duration: 5 * time.Second, Width: 1},
		func(a pws.SubmitAck) { first = a.ID })
	c.RunFor(500 * time.Millisecond) // first is dispatched before second arrives
	client.Submit(pws.Job{Pool: "p", Duration: time.Second, Width: 1},
		func(a pws.SubmitAck) { second = a.ID })
	c.RunFor(500 * time.Millisecond)
	get := func(id types.JobID) pws.JobState {
		var out pws.JobState = "none"
		client.JobStat(id, func(a pws.JobStatAck, ok bool) {
			if ok {
				out = a.State
			}
		})
		c.RunFor(time.Second)
		return out
	}
	if s1, s2 := get(first), get(second); s1 != pws.StateRunning || s2 != pws.StateQueued {
		t.Fatalf("states: %v %v", s1, s2)
	}
	c.RunFor(10 * time.Second)
	if s1, s2 := get(first), get(second); s1 != pws.StateCompleted || s2 != pws.StateCompleted {
		t.Fatalf("final states: %v %v", s1, s2)
	}
	if s := get(12345); s != pws.StateUnknown {
		t.Fatalf("unknown job state: %v", s)
	}
}
