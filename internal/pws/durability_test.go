package pws_test

import (
	"bytes"
	"log"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/pws"
	"repro/internal/simhost"
	"repro/internal/types"
)

// partition1Pool keeps the jobs off partition 0, whose server hosts the
// scheduler and its checkpoint instance.
func partition1Pool() []pws.PoolSpec {
	return []pws.PoolSpec{{Name: "pool0", Nodes: []types.NodeID{11, 12, 13}, Policy: pws.PolicyFIFO}}
}

// submitAll submits n long jobs at one instant and collects their acks;
// onLast runs inside the callback of the last ack to land.
func submitAll(t *testing.T, client *pws.Client, n int, onLast func()) map[types.JobID]bool {
	t.Helper()
	ids := make(map[types.JobID]bool)
	acks := 0
	for i := 0; i < n; i++ {
		client.Submit(pws.Job{Pool: "pool0", Duration: time.Minute, Width: 1}, func(a pws.SubmitAck) {
			if !a.OK {
				t.Errorf("submit refused: %+v", a)
				return
			}
			if ids[a.ID] {
				t.Errorf("job %d acked twice", a.ID)
			}
			ids[a.ID] = true
			if acks++; acks == n && onLast != nil {
				onLast()
			}
		})
	}
	return ids
}

func accounted(st pws.StatAck) int {
	return st.Queued + st.Running + st.Completed + st.Failed + st.TimedOut + st.Deleted
}

// TestAckedSubmitsSurviveHostLoss: 50 submits arrive at one instant, so
// most of their acks wait for a group-committed save; the scheduler's
// host powers off the moment the last ack lands. The migrated scheduler
// must account for all 50 jobs exactly once.
func TestAckedSubmitsSurviveHostLoss(t *testing.T) {
	c, _, client, _ := rig(t, partition1Pool(), false)
	server := c.Host(c.Topo.Partitions[0].Server)
	const jobs = 50
	ids := submitAll(t, client, jobs, server.PowerOff)
	c.RunFor(15 * time.Second)
	if len(ids) != jobs || server.Up() {
		t.Fatalf("%d of %d submits acked; scheduler host up: %v", len(ids), jobs, server.Up())
	}
	if !c.Host(c.Topo.Partitions[0].Backups[0]).Running(types.SvcPWS) {
		t.Fatal("scheduler did not migrate to the backup node")
	}
	if st := stat(t, c, client); accounted(st) != jobs {
		t.Fatalf("migrated scheduler accounts for %d of %d acked jobs: %+v", accounted(st), jobs, st)
	}
}

// TestSubmitsAckedThroughCheckpointOutage stops the scheduler's local
// checkpoint instance under a burst of submits. Saves fail while it is
// down, yet every submit is acked within CkptTimeout + SchedPeriod, and
// once the instance is back a restore holds every acked job: a failed save
// leaves the state dirty for the next one. Nothing else changes the state
// after the burst, so only that re-send can carry the jobs.
func TestSubmitsAckedThroughCheckpointOutage(t *testing.T) {
	const ckptTimeout, period = 300 * time.Millisecond, time.Second
	c, _, client := rigSpec(t, pws.Spec{Pools: partition1Pool(), SchedPeriod: period, CkptTimeout: ckptTimeout})
	server := c.Host(c.Topo.Partitions[0].Server)
	// Count the saves the scheduler sends that find no instance to answer.
	lost := 0
	c.Net.Filter = func(msg types.Message) bool {
		if msg.Type == checkpoint.MsgSave && msg.From.Service == types.SvcPWS && !server.Running(types.SvcCkpt) {
			lost++
		}
		return true
	}
	if err := server.Kill(types.SvcCkpt); err != nil {
		t.Fatal(err)
	}
	const jobs = 10
	sent := c.Engine.Now()
	var slowest time.Duration
	ids := submitAll(t, client, jobs, func() { slowest = c.Engine.Now().Sub(sent) })
	c.RunFor(5 * time.Second)
	if len(ids) != jobs {
		t.Fatalf("%d of %d submits acked", len(ids), jobs)
	}
	// The bound allows the request's and the ack's flight across the fabric.
	if limit := ckptTimeout + period + 10*time.Millisecond; slowest > limit {
		t.Fatalf("last ack after %v, want within %v", slowest, limit)
	}
	if lost == 0 || !server.Running(types.SvcCkpt) {
		t.Fatalf("outage not exercised: %d saves lost, checkpoint back: %v", lost, server.Running(types.SvcCkpt))
	}
	// The scheduler's breaker on the instance opened during the outage;
	// let it cool down (5 s) so a refresh's re-send lands, then restart the
	// scheduler, which restores its state from the checkpoint.
	c.RunFor(5 * time.Second)
	if err := server.Kill(types.SvcPWS); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if !server.Running(types.SvcPWS) {
		t.Fatal("scheduler not restarted by the GSD")
	}
	for id := range ids {
		var got pws.JobStatAck
		client.JobStat(id, func(a pws.JobStatAck, _ bool) { got = a })
		c.RunFor(500 * time.Millisecond)
		if got.State != pws.StateQueued && got.State != pws.StateRunning {
			t.Fatalf("acked job %d lost across the outage and a restore: %+v", id, got)
		}
	}
}

// slowCkpt stands in for a checkpoint instance: it acks every save after
// a delay, so submits pile up behind the one in flight.
type slowCkpt struct {
	h     *simhost.Handle
	delay time.Duration
}

func (f *slowCkpt) Service() string         { return types.SvcCkpt }
func (f *slowCkpt) Start(h *simhost.Handle) { f.h = h }
func (f *slowCkpt) OnStop()                 {}
func (f *slowCkpt) Receive(msg types.Message) {
	if req, ok := msg.Payload.(checkpoint.SaveReq); ok {
		f.h.After(f.delay, func() {
			f.h.Send(msg.From, types.AnyNIC, checkpoint.MsgSaveAck, checkpoint.SaveAck{Token: req.Token, Seq: req.Version})
		})
	}
}

// corruptCkpt acks saves like a slowCkpt and answers every restore with
// bytes no scheduler state decodes from.
type corruptCkpt struct{ slowCkpt }

func (f *corruptCkpt) Receive(msg types.Message) {
	if req, ok := msg.Payload.(checkpoint.RestoreReq); ok {
		f.h.Send(msg.From, types.AnyNIC, checkpoint.MsgRestoreAck,
			checkpoint.RestoreAck{Token: req.Token, Found: true, Seq: 1, Data: []byte{0xff, 0xff, 0xff}})
		return
	}
	f.slowCkpt.Receive(msg)
}

// useCkpt replaces the scheduler's checkpoint instance with a stand-in.
func useCkpt(t *testing.T, c *cluster.Cluster, ckpt simhost.Process) {
	t.Helper()
	server := c.Host(c.Topo.Partitions[0].Server)
	if err := server.Kill(types.SvcCkpt); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Spawn(ckpt); err != nil {
		t.Fatal(err)
	}
	c.RunFor(500 * time.Millisecond)
}

// TestNoSubmitAckBeforeItsSave watches the fabric's send order behind a
// slow checkpoint instance: no SubmitAck may leave before a save whose
// state holds that job, and the burst must be group-committed into fewer
// saves than submits.
func TestNoSubmitAckBeforeItsSave(t *testing.T) {
	c, _, client, _ := rig(t, partition1Pool(), false)
	useCkpt(t, c, &slowCkpt{delay: 50 * time.Millisecond})

	saved := make(map[types.JobID]bool)
	saves, acks := 0, 0
	c.Net.Filter = func(msg types.Message) bool {
		switch p := msg.Payload.(type) {
		case checkpoint.SaveReq:
			if p.Owner != "pws/0" {
				break
			}
			jobs, err := pws.SavedJobs(p.Data)
			if err != nil {
				t.Fatal(err)
			}
			saves++
			for id := range jobs {
				saved[id] = true
			}
		case pws.SubmitAck:
			acks++
			if !saved[p.ID] {
				t.Errorf("SubmitAck for job %d sent before any save holding it", p.ID)
			}
		}
		return true
	}
	const jobs = 50
	ids := submitAll(t, client, jobs, nil)
	c.RunFor(2 * time.Second)
	if len(ids) != jobs || acks != jobs {
		t.Fatalf("%d of %d submits acked (%d acks sent)", len(ids), jobs, acks)
	}
	if saves == 0 || saves >= jobs {
		t.Fatalf("%d submits took %d saves, want group commit into fewer", jobs, saves)
	}
}

// TestRetryOfQueuedSubmitIsOneJob: behind a save slower than the client's
// attempt timeout, a submit's ack stays queued long enough for the client
// to retry it. The retry carries the same token and must not add a job.
func TestRetryOfQueuedSubmitIsOneJob(t *testing.T) {
	c, _, client, _ := rig(t, partition1Pool(), false)
	useCkpt(t, c, &slowCkpt{delay: 1500 * time.Millisecond})
	submits := 0
	c.Net.Filter = func(msg types.Message) bool {
		if msg.Type == pws.MsgSubmit {
			submits++
		}
		return true
	}
	first := submitAll(t, client, 1, nil) // its save is in flight for 1.5 s
	c.RunFor(10 * time.Millisecond)
	second := submitAll(t, client, 1, nil) // acked with the next save
	c.RunFor(3 * time.Second)
	if len(first) != 1 || len(second) != 1 || submits < 3 {
		t.Fatalf("acks %d and %d, %d submit messages: want both acked and the second retried", len(first), len(second), submits)
	}
	if st := stat(t, c, client); accounted(st) != 2 {
		t.Fatalf("scheduler accounts for %d jobs, 2 were submitted: %+v", accounted(st), st)
	}
}

// TestUndecodableRestoreIsLogged: a scheduler restarted onto a checkpoint
// it cannot decode (one written with another state layout, say) logs the
// owner, the blob's length and the error, and still reports ready.
func TestUndecodableRestoreIsLogged(t *testing.T) {
	c, _, _, _ := rig(t, partition1Pool(), false)
	useCkpt(t, c, &corruptCkpt{})
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	ready := 0
	c.Net.Filter = func(msg types.Message) bool {
		if r, ok := msg.Payload.(events.ReadyMsg); ok && r.Service == types.SvcPWS {
			ready++
		}
		return true
	}
	server := c.Host(c.Topo.Partitions[0].Server)
	if err := server.Kill(types.SvcPWS); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if !server.Running(types.SvcPWS) {
		t.Fatal("scheduler not restarted by the GSD")
	}
	if want := "pws: pws/0: restore of a 3-byte checkpoint failed, starting empty: pws: decode state:"; !strings.Contains(logged.String(), want) {
		t.Fatalf("log %q does not contain %q", logged.String(), want)
	}
	if ready == 0 {
		t.Fatal("restarted scheduler sent no ReadyMsg")
	}
}
