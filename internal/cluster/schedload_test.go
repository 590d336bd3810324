package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pws"
	"repro/internal/types"
)

// TestSchedulerBacklogTrafficBounded fences the scheduler's control-plane
// traffic under a backlog on the benchmark's scheduler shape (64 nodes,
// PWS on partition 0): a burst of submits and the completions that follow
// must not each poll the bulletin federation or each save the whole
// scheduler state. Bulletin queries stay at one per scheduling period (plus
// a little slack), and group commit keeps the checkpoint saves within 25 %
// of the measured 80. Every job is acked once and accounted once.
func TestSchedulerBacklogTrafficBounded(t *testing.T) {
	const (
		backlog  = 300
		window   = 20 * time.Second
		maxSaves = 80 * 5 / 4
	)
	c := pwsCluster(t)
	c.WarmUp()
	client := spawnSubmitter(t, c)
	period := c.Spec.Params.LocalCheckPeriod

	count := func(typ string) int { return int(c.Metrics.Counter("net.msgs." + typ).Value()) }
	queries0, saves0 := count("db.query"), count("ckpt.save")
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
	t.Logf("%d submits over %v: %d db.query, %d ckpt.save", backlog, window, queries, saves)
	if limit := int(window/period) + 5; queries > limit {
		t.Errorf("%d bulletin queries in %v, want at most %d (one per %v period)", queries, window, limit, period)
	}
	if saves > maxSaves {
		t.Errorf("%d checkpoint saves in %v, want at most %d", saves, window, maxSaves)
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
