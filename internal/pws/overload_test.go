package pws_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ppm"
	"repro/internal/pws"
	"repro/internal/rpc"
	"repro/internal/types"
)

// rigSpec is rig with full control over the scheduler spec (pool types,
// overload thresholds).
func rigSpec(t *testing.T, base pws.Spec) (*cluster.Cluster, *pws.Scheduler, *pws.Client) {
	t.Helper()
	return rigOn(t, cluster.Small(), base)
}

// rigOn is rigSpec on a cluster of the given shape.
func rigOn(t *testing.T, spec cluster.Spec, base pws.Spec) (*cluster.Cluster, *pws.Scheduler, *pws.Client) {
	t.Helper()
	spec.ExtraServices = map[types.PartitionID][]string{0: {types.SvcPWS}}
	c, err := cluster.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	base.Partition = 0
	if base.SchedPeriod == 0 {
		base.SchedPeriod = time.Second
	}
	sched, err := pws.Deploy(c, base)
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
	return c, sched, client
}

func mixedPools() []pws.PoolSpec {
	return []pws.PoolSpec{
		{Name: "svc", Nodes: []types.NodeID{3}, Policy: pws.PolicyFIFO,
			AllowLease: true, Type: pws.PoolService},
		{Name: "batch", Nodes: []types.NodeID{4, 5}, Policy: pws.PolicyPriority,
			AllowLease: true},
	}
}

// The refuse rung: with every node busy and a batch backlog at least the
// cluster size, batch submits are refused with Shed set (the client maps
// it to rpc.ErrShed) while service submits stay open; once the load
// drains, the ladder steps back down and batch admission reopens.
func TestShedLadderRefusesBatchAndRecovers(t *testing.T) {
	c, _, client := rigSpec(t, pws.Spec{Pools: mixedPools()})
	// Occupy all three nodes and pile up a backlog >= cluster size.
	client.Submit(pws.Job{Pool: "svc", Duration: 8 * time.Second, Width: 1}, nil)
	for i := 0; i < 2; i++ {
		client.Submit(pws.Job{Pool: "batch", Duration: 8 * time.Second, Width: 1}, nil)
	}
	c.RunFor(time.Second)
	for i := 0; i < 3; i++ {
		client.Submit(pws.Job{Pool: "batch", Duration: time.Second, Width: 1}, nil)
	}
	c.RunFor(3 * time.Second)
	st := stat(t, c, client)
	if st.Util < 0.99 || st.Shed != "refuse" {
		t.Fatalf("ladder not at refuse: %+v", st)
	}
	// A batch submit is refused as shed...
	var batchAck *pws.SubmitAck
	client.Submit(pws.Job{Pool: "batch", Duration: time.Second, Width: 1},
		func(a pws.SubmitAck) { batchAck = &a })
	// ...while a service submit goes through.
	var svcAck *pws.SubmitAck
	client.Submit(pws.Job{Pool: "svc", Duration: time.Second, Width: 1},
		func(a pws.SubmitAck) { svcAck = &a })
	c.RunFor(time.Second)
	if batchAck == nil || batchAck.OK || !batchAck.Shed {
		t.Fatalf("batch submit not refused: %+v", batchAck)
	}
	if err := batchAck.AsError(); err == nil || !strings.Contains(err.Error(), rpc.ErrShed.Error()) {
		t.Fatalf("refusal does not surface as ErrShed: %v", err)
	}
	if svcAck == nil || !svcAck.OK {
		t.Fatalf("service submit refused under overload: %+v", svcAck)
	}
	st = stat(t, c, client)
	if st.AdmissionRejects == 0 || st.ShedTotal == 0 {
		t.Fatalf("shed counters empty: %+v", st)
	}
	// The flood finishes; the ladder steps down and admission reopens.
	c.RunFor(25 * time.Second)
	st = stat(t, c, client)
	if st.Shed != "none" {
		t.Fatalf("ladder stuck at %q after load drained: %+v", st.Shed, st)
	}
	var again *pws.SubmitAck
	client.Submit(pws.Job{Pool: "batch", Duration: time.Second, Width: 1},
		func(a pws.SubmitAck) { again = &a })
	c.RunFor(5 * time.Second)
	if again == nil || !again.OK {
		t.Fatalf("batch admission did not reopen: %+v", again)
	}
	if st := stat(t, c, client); st.Failed != 0 {
		t.Fatalf("jobs quarantined by overload: %+v", st)
	}
}

// Phoenix Cloud's claim: a service pool holds its SLO while a batch
// tenant floods the cluster at twice the batch pool's drain rate. On
// 2 partitions x 4 nodes (one service node, three batch nodes), a 2 s
// service job every 4 s with a 4 s SLO runs beside 4 s batch jobs for
// 60 s. Typed PoolService every service job makes its SLO; the same pool
// typed PoolBatch gets no priority over the flood and misses, which
// proves the flood bites.
func TestServicePoolHoldsSLOUnderBatchFlood(t *testing.T) {
	const slo, batchDur = 4 * time.Second, 4 * time.Second
	for _, tc := range []struct {
		name string
		typ  pws.PoolType
	}{{"service", pws.PoolService}, {"untyped", pws.PoolBatch}} {
		t.Run(tc.name, func(t *testing.T) {
			shape := cluster.Small()
			shape.Partitions, shape.PartitionSize = 2, 4 // compute nodes 2, 3, 6, 7
			batchNodes := []types.NodeID{3, 6, 7}
			c, _, client := rigOn(t, shape, pws.Spec{
				Pools: []pws.PoolSpec{
					{Name: "service", Nodes: []types.NodeID{2}, Policy: pws.PolicyFIFO,
						AllowLease: true, Type: tc.typ},
					{Name: "batch", Nodes: batchNodes, Policy: pws.PolicyPriority,
						AllowLease: true},
				},
				UseBulletin: true,
				Overload:    pws.OverloadFromParams(config.FastParams()),
			})

			type svcJob struct {
				id       types.JobID
				at, took time.Duration // took stays 0 until seen completed
			}
			var jobs []*svcJob
			// poll asks after every acked, unfinished service job at 1 s
			// resolution and reports whether any is still outstanding.
			poll := func() (outstanding bool) {
				for _, j := range jobs {
					if j.id == 0 || j.took != 0 {
						continue
					}
					outstanding = true
					client.JobStat(j.id, func(a pws.JobStatAck, ok bool) {
						if ok && a.State == pws.StateCompleted && j.took == 0 {
							j.took = c.Engine.Elapsed() - j.at
						}
					})
				}
				return outstanding
			}
			batchRate := 2 * float64(len(batchNodes)) / batchDur.Seconds()
			var acc float64
			for tick := 0; tick < 60; tick++ {
				if tick%4 == 0 {
					j := &svcJob{at: c.Engine.Elapsed()}
					jobs = append(jobs, j)
					client.Submit(pws.Job{Pool: "service", Duration: 2 * time.Second, Width: 1, SLO: slo},
						func(a pws.SubmitAck) {
							if a.OK {
								j.id = a.ID
							}
						})
				}
				for acc += batchRate; acc >= 1; acc-- {
					client.Submit(pws.Job{Pool: "batch", Duration: batchDur, Width: 1}, nil)
				}
				poll()
				c.RunFor(time.Second)
			}
			for i := 0; i < 30 && poll(); i++ {
				c.RunFor(time.Second)
			}

			missed := 0
			for _, j := range jobs {
				if j.took == 0 || j.took > slo {
					missed++
				}
			}
			if tc.typ == pws.PoolBatch {
				if missed == 0 {
					t.Fatalf("untyped pool kept all %d service jobs in SLO — the flood did not bite", len(jobs))
				}
				return
			}
			if missed != 0 {
				t.Fatalf("service pool missed its SLO on %d of %d jobs", missed, len(jobs))
			}
			if st := stat(t, c, client); st.Failed != 0 {
				t.Fatalf("jobs failed under the flood: %+v", st)
			}
		})
	}
}

// The preempt rung: a service job that cannot be placed while the
// cluster runs hot evicts the lowest-priority batch job and borrows its
// node.
func TestPreemptionFreesServiceCapacity(t *testing.T) {
	c, _, client := rigSpec(t, pws.Spec{
		Pools:    mixedPools(),
		Overload: pws.Overload{LeaseReturnDelay: 2 * time.Second},
	})
	client.Submit(pws.Job{Pool: "svc", Duration: 40 * time.Second, Width: 1}, nil)
	client.Submit(pws.Job{Pool: "batch", Duration: 40 * time.Second, Width: 1, Priority: 9}, nil)
	var lowID types.JobID
	client.Submit(pws.Job{Pool: "batch", Duration: 40 * time.Second, Width: 1, Priority: 1},
		func(a pws.SubmitAck) { lowID = a.ID })
	c.RunFor(2 * time.Second)
	if st := stat(t, c, client); st.Running != 3 {
		t.Fatalf("warm-up: %+v", st)
	}
	// A second service job has nowhere to go: the ladder preempts the
	// low-priority batch job and the service pool borrows its node.
	var svcID types.JobID
	client.Submit(pws.Job{Pool: "svc", Duration: 2 * time.Second, Width: 1},
		func(a pws.SubmitAck) { svcID = a.ID })
	c.RunFor(5 * time.Second)
	st := stat(t, c, client)
	if st.Preempted != 1 {
		t.Fatalf("preempted = %d, want 1: %+v", st.Preempted, st)
	}
	if st.Requeued != 1 {
		t.Fatalf("victim not requeued: %+v", st)
	}
	// The victim was the low-priority job, and the service job got its
	// node: by now it has run its 2 seconds and completed.
	var lowState, svcState pws.JobState
	client.JobStat(lowID, func(a pws.JobStatAck, ok bool) { lowState = a.State })
	client.JobStat(svcID, func(a pws.JobStatAck, ok bool) { svcState = a.State })
	c.RunFor(time.Second)
	if svcState != pws.StateRunning && svcState != pws.StateCompleted {
		t.Fatalf("service job not placed after preemption: %v", svcState)
	}
	if lowState == pws.StateCompleted {
		t.Fatalf("low-priority job untouched, wrong victim: low=%v (%+v)", lowState, st)
	}
	// Administrative preemption never charges the poison budget.
	if st.Failed != 0 {
		t.Fatalf("preemption quarantined a job: %+v", st)
	}
}

// Poison-job quarantine: a job whose slices keep dying lands in the
// terminal failed state once its requeue budget of three is gone, with the
// reason reported, instead of churning the cluster forever.
func TestPoisonJobQuarantined(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "p", Nodes: []types.NodeID{3, 4}, Policy: pws.PolicyFIFO}}
	c, _, client := rigSpec(t, pws.Spec{Pools: pools})
	var id types.JobID
	client.Submit(pws.Job{Pool: "p", Name: "poison", Duration: time.Hour, Width: 1},
		func(a pws.SubmitAck) { id = a.ID })
	c.RunFor(time.Second)
	// Crash the job process wherever it lands: three requeues, then the
	// fourth crash exhausts the budget.
	for i := 0; i < 4; i++ {
		killed := false
		for _, n := range []types.NodeID{3, 4} {
			if c.Host(n).Present("job/1") {
				if err := c.Host(n).Kill("job/1"); err != nil {
					t.Fatal(err)
				}
				killed = true
				break
			}
		}
		if !killed {
			t.Fatalf("attempt %d: job process not found", i)
		}
		c.RunFor(3 * time.Second)
	}
	st := stat(t, c, client)
	if st.Failed != 1 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("poison job not quarantined: %+v", st)
	}
	var js *pws.JobStatAck
	client.JobStat(id, func(a pws.JobStatAck, ok bool) {
		if ok {
			js = &a
		}
	})
	c.RunFor(time.Second)
	if js == nil || js.State != pws.StateFailed {
		t.Fatalf("jobstat: %+v", js)
	}
	if !strings.Contains(js.Reason, "requeue budget") {
		t.Fatalf("failure reason missing budget diagnosis: %q", js.Reason)
	}
	// The cluster is healthy for well-behaved work.
	client.Submit(pws.Job{Pool: "p", Duration: time.Second, Width: 2}, nil)
	c.RunFor(5 * time.Second)
	if st := stat(t, c, client); st.Completed != 1 {
		t.Fatalf("cluster unusable after quarantine: %+v", st)
	}
}

// Drain takes a node out of placement, requeues its running batch slice,
// and flips the node's PPM drain mark; undrain reverses all of it.
func TestDrainUndrainNode(t *testing.T) {
	pools := []pws.PoolSpec{{Name: "p", Nodes: []types.NodeID{3, 4}, Policy: pws.PolicyFIFO}}
	c, _, client := rigSpec(t, pws.Spec{Pools: pools})
	client.Submit(pws.Job{Pool: "p", Duration: 30 * time.Second, Width: 1}, nil)
	c.RunFor(time.Second)
	var victim types.NodeID = -1
	for _, n := range []types.NodeID{3, 4} {
		if c.Host(n).Present("job/1") {
			victim = n
		}
	}
	if victim < 0 {
		t.Fatal("job not placed")
	}
	var ack *pws.DrainAdminAck
	client.Drain(victim, false, func(a pws.DrainAdminAck) { ack = &a })
	c.RunFor(2 * time.Second)
	if ack == nil || !ack.OK || ack.Requeued != 1 {
		t.Fatalf("drain ack: %+v", ack)
	}
	d, ok := c.Host(victim).Proc(types.SvcPPM).(*ppm.Daemon)
	if !ok || !d.Draining() {
		t.Fatalf("node %d PPM not marked draining", victim)
	}
	// The job moved to the other node; the drained node takes nothing new.
	st := stat(t, c, client)
	if st.Running != 1 || st.Pools[0].Draining != 1 {
		t.Fatalf("post-drain stat: %+v", st)
	}
	if c.Host(victim).Present("job/1") {
		t.Fatal("slice survived on draining node")
	}
	client.Submit(pws.Job{Pool: "p", Duration: time.Second, Width: 1}, nil)
	c.RunFor(3 * time.Second)
	if st := stat(t, c, client); st.Queued != 1 {
		t.Fatalf("job placed despite drained node: %+v", st)
	}
	// Undrain: the queued job dispatches onto the returned node.
	client.Drain(victim, true, nil)
	c.RunFor(5 * time.Second)
	st = stat(t, c, client)
	if st.Completed != 1 || st.Queued != 0 || st.Pools[0].Draining != 0 {
		t.Fatalf("post-undrain stat: %+v", st)
	}
	if d.Draining() {
		t.Fatalf("node %d PPM still draining after undrain", victim)
	}
}

// A leased node dying mid-borrow releases the lease and requeues the
// job; the lender's books stay consistent (no double-accounted free
// node) and the job completes on the surviving capacity.
func TestBorrowedNodeFailureReleasesLease(t *testing.T) {
	pools := []pws.PoolSpec{
		{Name: "a", Nodes: []types.NodeID{3, 4}, Policy: pws.PolicyFIFO, AllowLease: true},
		{Name: "b", Nodes: []types.NodeID{5, 6}, Policy: pws.PolicyFIFO, AllowLease: true},
	}
	c, _, client := rigSpec(t, pws.Spec{Pools: pools})
	client.Submit(pws.Job{Pool: "a", Duration: 5 * time.Second, Width: 3}, nil)
	c.RunFor(1500 * time.Millisecond)
	st := stat(t, c, client)
	if st.Running != 1 || st.LeasedNodes != 1 {
		t.Fatalf("borrow not established: %+v", st)
	}
	var borrowed types.NodeID = -1
	for _, n := range pools[1].Nodes {
		if c.Host(n).Present("job/1") {
			borrowed = n
		}
	}
	if borrowed < 0 {
		t.Fatal("no pool-b node hosts a slice")
	}
	c.Host(borrowed).PowerOff()
	c.RunFor(8 * time.Second)
	st = stat(t, c, client)
	if st.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1: %+v", st.Requeued, st)
	}
	// The job re-borrows the surviving pool-b node and completes; every
	// lease is back with its lender and the dead node is off the books.
	c.RunFor(20 * time.Second)
	st = stat(t, c, client)
	if st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("job lost after lease failure: %+v", st)
	}
	if st.LeasedNodes != 0 {
		t.Fatalf("dangling leases: %+v", st)
	}
	var a, b pws.PoolStat
	for _, ps := range st.Pools {
		if ps.Name == "a" {
			a = ps
		} else {
			b = ps
		}
	}
	if a.Free != 2 || b.Free != 1 || a.Leased != 0 || b.Leased != 0 {
		t.Fatalf("free-node accounting wrong after node death: a=%+v b=%+v", a, b)
	}
}

// A service pool keeps a borrowed node after its job finishes (lease
// retention) and only returns it once the cluster has stayed cool for
// the configured delay.
func TestServiceLeaseRetentionAndReturn(t *testing.T) {
	c, _, client := rigSpec(t, pws.Spec{
		Pools:    mixedPools(),
		Overload: pws.Overload{LeaseReturnDelay: 3 * time.Second},
	})
	// Width 2 from a 1-node service pool: one node is borrowed from batch.
	client.Submit(pws.Job{Pool: "svc", Duration: 2 * time.Second, Width: 2}, nil)
	c.RunFor(1500 * time.Millisecond)
	if st := stat(t, c, client); st.Running != 1 || st.LeasedNodes != 1 {
		t.Fatalf("service borrow not established: %+v", st)
	}
	// Just after completion the lease is retained, not returned.
	c.RunFor(2 * time.Second)
	st := stat(t, c, client)
	if st.Completed != 1 {
		t.Fatalf("service job incomplete: %+v", st)
	}
	if st.LeasedNodes != 1 {
		t.Fatalf("lease returned immediately, retention not applied: %+v", st)
	}
	// After the cool-down delay the lender gets its node back.
	c.RunFor(6 * time.Second)
	if st := stat(t, c, client); st.LeasedNodes != 0 {
		t.Fatalf("retained lease never returned: %+v", st)
	}
}
