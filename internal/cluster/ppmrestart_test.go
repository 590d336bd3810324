package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/core"
	"repro/internal/ppm"
	"repro/internal/pws"
	"repro/internal/types"
)

// TestRestartedPPMReadoptsRunningJob: a PPM killed while a 5 s job runs on
// its node is respawned by the node's WD and re-adopts the job from the
// process table. The job's bulletin row stays listed, its exit reaches the
// scheduler as exactly one JobDone, and the scheduler, auditing the node
// through the new PPM, does not mistake it for free: with every compute
// node busy and jobs queued, no second job is dispatched to it while the
// first runs.
func TestRestartedPPMReadoptsRunningJob(t *testing.T) {
	c := pwsCluster(t)
	c.WarmUp()
	client := spawnSubmitter(t, c)

	var id types.JobID
	client.Submit(pws.Job{Pool: "pool0", Name: "readopt", Duration: 5 * time.Second, Width: 1},
		func(a pws.SubmitAck) { id = a.ID })
	var node types.NodeID
	found := false
	for i := 0; i < 100 && !found; i++ {
		c.RunFor(50 * time.Millisecond)
		for _, h := range c.Hosts {
			if id != 0 && h.Running(fmt.Sprintf("job/%d", id)) {
				node, found = h.ID(), true
			}
		}
	}
	if !found {
		t.Fatal("job never started")
	}
	svc := fmt.Sprintf("job/%d", id)
	started := c.Engine.Elapsed()

	// Fill every compute node and leave jobs queued, so a node the
	// scheduler wrongly believes free is dispatched to at once.
	for i := 0; i < len(c.Topo.ComputeNodes())+8; i++ {
		client.Submit(pws.Job{Pool: fmt.Sprintf("pool%d", i%4), Name: fmt.Sprintf("fill%d", i),
			Duration: time.Minute, Width: 1}, func(pws.SubmitAck) {})
	}
	dones := 0
	c.Net.Trace = func(msg types.Message) {
		if jd, ok := msg.Payload.(ppm.JobDone); ok && msg.Type == ppm.MsgJobDone && jd.Job == id {
			dones++
		}
	}

	part, _ := c.Topo.PartitionOf(node)
	q := core.NewClientProc("query", part.ID, part.Server)
	if _, err := c.Host(part.Members[1]).Spawn(q); err != nil {
		t.Fatal(err)
	}
	listed := func() bool {
		ok := false
		q.Bulletin.Query(bulletin.ScopePartition, func(ack bulletin.QueryAck, _ bool) {
			for _, snap := range ack.Snapshots {
				for _, app := range snap.Apps {
					ok = ok || (app.Node == node && app.Name == svc)
				}
			}
		})
		c.RunFor(200 * time.Millisecond)
		return ok
	}
	jobsOn := func() int {
		n := 0
		for _, proc := range c.Host(node).Procs() {
			if strings.HasPrefix(proc, "job/") {
				n++
			}
		}
		return n
	}

	c.RunFor(started + time.Second - c.Engine.Elapsed())
	if err := c.Host(node).Kill(types.SvcPPM); err != nil {
		t.Fatal(err)
	}
	restarted := false
	for c.Host(node).Present(svc) {
		if !listed() {
			t.Fatalf("at %v: %s not listed on %v", c.Engine.Elapsed()-started, svc, node)
		}
		if n := jobsOn(); n != 1 {
			t.Fatalf("at %v: %d jobs on %v while %s runs, want 1", c.Engine.Elapsed()-started, n, node, svc)
		}
		if p, ok := c.Host(node).Proc(types.SvcPPM).(*ppm.Daemon); ok {
			restarted = true
			if p.Jobs() != 1 {
				t.Fatalf("at %v: restarted PPM tracks %d jobs, want 1", c.Engine.Elapsed()-started, p.Jobs())
			}
		}
		if c.Engine.Elapsed()-started > 10*time.Second {
			t.Fatal("job outlived its duration")
		}
	}
	if !restarted {
		t.Fatal("the WD never restarted the PPM while the job ran")
	}
	c.RunFor(2 * time.Second)
	if dones != 1 {
		t.Fatalf("%d JobDone notifications for job %d, want 1", dones, id)
	}
}
