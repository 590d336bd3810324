package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/core"
	"repro/internal/pws"
	"repro/internal/types"
)

// TestSchedulerBacklogTrafficBounded fences the scheduler's control-plane
// traffic under a backlog on the benchmark's scheduler shape (64 nodes,
// PWS on partition 0): a burst of submits and the completions that follow
// must not each poll the bulletin federation or each save the whole
// scheduler state. Bulletin queries stay at one per scheduling period (plus
// a little slack), and group commit keeps the checkpoint saves within 25 %
// of the measured 80. Job rows reach the bulletin only at a job's start and
// exit, and only the home store keeps them, so bulletin puts and gossip
// submits stay within 25 % of the measured 2,880 and 80 (a per-sample
// re-export copied into the shard plane sent 4,431 and 151). Every job is
// acked once and accounted once.
func TestSchedulerBacklogTrafficBounded(t *testing.T) {
	const (
		backlog    = 300
		window     = 20 * time.Second
		maxSaves   = 80 * 5 / 4
		maxPuts    = 2880 * 5 / 4
		maxSubmits = 80 * 5 / 4
	)
	c := pwsCluster(t)
	c.WarmUp()
	client := spawnSubmitter(t, c)
	period := c.Spec.Params.LocalCheckPeriod

	count := func(typ string) int { return int(c.Metrics.Counter("net.msgs." + typ).Value()) }
	queries0, saves0 := count("db.query"), count("ckpt.save")
	puts0, submits0 := count("db.put"), count("gsp.submit")
	acked := make(map[types.JobID]int)
	for i := 0; i < backlog; i++ {
		client.Submit(pws.Job{Pool: fmt.Sprintf("pool%d", i%4), Name: fmt.Sprintf("b%d", i),
			Duration: time.Duration(1+i%3) * time.Second, Width: 1}, func(a pws.SubmitAck) {
			if a.OK {
				acked[a.ID]++
			}
		})
	}
	c.RunFor(window)
	queries, saves := count("db.query")-queries0, count("ckpt.save")-saves0
	puts, submits := count("db.put")-puts0, count("gsp.submit")-submits0
	t.Logf("%d submits over %v: %d db.query, %d ckpt.save, %d db.put, %d gsp.submit",
		backlog, window, queries, saves, puts, submits)
	if limit := int(window/period) + 5; queries > limit {
		t.Errorf("%d bulletin queries in %v, want at most %d (one per %v period)", queries, window, limit, period)
	}
	if saves > maxSaves {
		t.Errorf("%d checkpoint saves in %v, want at most %d", saves, window, maxSaves)
	}
	if puts > maxPuts {
		t.Errorf("%d bulletin puts in %v, want at most %d", puts, window, maxPuts)
	}
	if submits > maxSubmits {
		t.Errorf("%d gossip submits in %v, want at most %d", submits, window, maxSubmits)
	}

	if len(acked) != backlog {
		t.Errorf("%d of %d jobs acked", len(acked), backlog)
	}
	for id, n := range acked {
		if n != 1 {
			t.Errorf("job %d acked %d times", id, n)
		}
	}
	var st pws.StatAck
	client.Stat(func(a pws.StatAck, ok bool) {
		if ok {
			st = a
		}
	})
	c.RunFor(time.Second)
	if sum := st.Completed + st.Queued + st.Running + st.Failed + st.TimedOut + st.Deleted; sum != backlog {
		t.Errorf("scheduler accounts for %d of %d jobs: %+v", sum, backlog, st)
	}
}

// TestClusterQueryCountsRunningJobs: on the scheduler shape, the cluster
// query's app count equals the number of running job processes at instants
// between job transitions: while a batch runs, after a partition server
// dies and its bulletin migrates, and once every job has finished.
func TestClusterQueryCountsRunningJobs(t *testing.T) {
	c := pwsCluster(t)
	c.WarmUp()
	submit := spawnSubmitter(t, c)
	parts := c.Topo.Partitions
	q := core.NewClientProc("query", 2, parts[2].Server)
	if _, err := c.Host(parts[2].Members[len(parts[2].Members)-1]).Spawn(q); err != nil {
		t.Fatal(err)
	}
	running := func() int {
		n := 0
		for _, h := range c.Hosts {
			for _, svc := range h.Procs() {
				if strings.HasPrefix(svc, "job/") && h.Running(svc) {
					n++
				}
			}
		}
		return n
	}
	check := func(when string) {
		t.Helper()
		apps := -1
		q.Bulletin.Query(bulletin.ScopeCluster, func(ack bulletin.QueryAck, ok bool) {
			if ok && len(ack.Missing) == 0 {
				apps = bulletin.AggregateSnapshots(ack.Snapshots).Apps
			}
		})
		c.RunFor(500 * time.Millisecond)
		want := running()
		t.Logf("%s: %d apps listed, %d job processes run", when, apps, want)
		if apps != want {
			t.Errorf("%s: cluster query lists %d apps, %d job processes run", when, apps, want)
		}
	}
	for i := 0; i < 40; i++ {
		submit.Submit(pws.Job{Pool: fmt.Sprintf("pool%d", i%4), Name: fmt.Sprintf("j%d", i),
			Duration: 30 * time.Second, Width: 1}, nil)
	}
	c.RunFor(5 * time.Second)
	if running() == 0 {
		t.Fatal("no job runs")
	}
	for i := 0; i < 3; i++ {
		check(fmt.Sprintf("batch running, check %d", i))
		c.RunFor(2 * time.Second)
	}
	c.Host(parts[1].Server).PowerOff()
	c.RunFor(10 * time.Second)
	for i := 0; i < 3; i++ {
		check(fmt.Sprintf("after the server kill, check %d", i))
		c.RunFor(2 * time.Second)
	}
	c.RunFor(30 * time.Second)
	if running() != 0 {
		t.Fatalf("%d jobs still run", running())
	}
	check("all jobs finished")
}
