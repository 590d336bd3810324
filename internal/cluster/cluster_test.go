package cluster

import (
	"fmt"

	"repro/internal/config"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/core"
	"repro/internal/ppm"
	"repro/internal/types"
)

// eventSink spawns a subscriber client on a compute node and collects
// matching kernel events.
type eventSink struct {
	proc   *core.ClientProc
	events []types.Event
}

func newEventSink(t *testing.T, c *Cluster, node types.NodeID, evTypes []types.EventType) *eventSink {
	t.Helper()
	sink := &eventSink{}
	part, _ := c.Topo.PartitionOf(node)
	sink.proc = core.NewClientProc("sink", part.ID, part.Server)
	sink.proc.OnStart = func(cp *core.ClientProc) {
		cp.Events.Subscribe(evTypes, -1, "", func(ev types.Event) {
			sink.events = append(sink.events, ev)
		}, nil)
	}
	if _, err := c.Host(node).Spawn(sink.proc); err != nil {
		t.Fatal(err)
	}
	c.RunFor(500 * time.Millisecond)
	return sink
}

func (s *eventSink) count(tp types.EventType) int {
	n := 0
	for _, ev := range s.events {
		if ev.Type == tp {
			n++
		}
	}
	return n
}

func (s *eventSink) first(tp types.EventType) (types.Event, bool) {
	for _, ev := range s.events {
		if ev.Type == tp {
			return ev, true
		}
	}
	return types.Event{}, false
}

func smallCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	c.WarmUp()
	return c
}

func TestBootAllDaemonsUp(t *testing.T) {
	c := smallCluster(t)
	for _, ni := range c.Topo.Nodes {
		h := c.Host(ni.ID)
		for _, svc := range []string{types.SvcWD, types.SvcDetector, types.SvcPPM} {
			if !h.Running(svc) {
				t.Fatalf("%v missing %s after boot", ni.ID, svc)
			}
		}
	}
	for _, p := range c.Topo.Partitions {
		h := c.Host(p.Server)
		for _, svc := range []string{types.SvcGSD, types.SvcES, types.SvcDB, types.SvcCkpt} {
			if !h.Running(svc) {
				t.Fatalf("server %v missing %s after boot", p.Server, svc)
			}
		}
	}
	master := c.Host(c.Topo.Master)
	if !master.Running(types.SvcConfig) || !master.Running(types.SvcSecurity) {
		t.Fatal("master services missing")
	}
}

func TestBulletinClusterQueryCoversAllNodes(t *testing.T) {
	c := smallCluster(t)
	c.RunFor(3 * time.Second) // a few detector samples

	var got *bulletin.QueryAck
	client := core.NewClientProc("q", 0, 0)
	client.OnStart = func(cp *core.ClientProc) {
		cp.Bulletin.Query(bulletin.ScopeCluster, func(ack bulletin.QueryAck, ok bool) {
			if ok {
				got = &ack
			}
		})
	}
	if _, err := c.Host(5).Spawn(client); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	if got == nil {
		t.Fatal("no bulletin answer")
	}
	if len(got.Missing) != 0 {
		t.Fatalf("missing partitions on a healthy cluster: %v", got.Missing)
	}
	agg := bulletin.AggregateSnapshots(got.Snapshots)
	if agg.Nodes != c.Topo.NumNodes() {
		t.Fatalf("aggregate covers %d nodes, want %d", agg.Nodes, c.Topo.NumNodes())
	}
	if agg.AvgCPUPct <= 0 || agg.AvgMemPct <= 0 {
		t.Fatalf("implausible aggregate: %+v", agg)
	}
}

func TestWDKillAutoRecovery(t *testing.T) {
	c := smallCluster(t)
	sink := newEventSink(t, c, 20, []types.EventType{
		types.EvNodeSuspect, types.EvProcFail, types.EvProcRecover,
	})
	victim := types.NodeID(12) // compute node of partition 1
	if err := c.Host(victim).Kill(types.SvcWD); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if sink.count(types.EvProcFail) != 1 {
		t.Fatalf("proc.fail events: %v", sink.events)
	}
	if sink.count(types.EvProcRecover) != 1 {
		t.Fatalf("proc.recover events: %v", sink.events)
	}
	if !c.Host(victim).Running(types.SvcWD) {
		t.Fatal("WD not respawned")
	}
	ev, _ := sink.first(types.EvProcFail)
	if ev.Node != victim || ev.Service != types.SvcWD {
		t.Fatalf("proc.fail contents: %+v", ev)
	}
}

func TestNodeDeathAndReintegration(t *testing.T) {
	c := smallCluster(t)
	sink := newEventSink(t, c, 3, []types.EventType{types.EvNodeFail, types.EvNodeRecover})
	victim := types.NodeID(13)
	c.Host(victim).PowerOff()
	c.RunFor(5 * time.Second)
	if sink.count(types.EvNodeFail) != 1 {
		t.Fatalf("node.fail events: %v", sink.events)
	}
	// The node reboots; the GSD's reintegration sweep reseeds it.
	c.Host(victim).PowerOn()
	c.RunFor(8 * time.Second)
	if sink.count(types.EvNodeRecover) != 1 {
		t.Fatalf("node.recover events: %v", sink.events)
	}
	h := c.Host(victim)
	for _, svc := range []string{types.SvcWD, types.SvcDetector, types.SvcPPM} {
		if !h.Running(svc) {
			t.Fatalf("reintegrated node missing %s", svc)
		}
	}
}

func TestNICFailureEvents(t *testing.T) {
	c := smallCluster(t)
	sink := newEventSink(t, c, 3, []types.EventType{types.EvNetFail, types.EvNetRecover})
	victim := types.NodeID(14)
	if err := c.Net.SetNICUp(victim, 1, false); err != nil {
		t.Fatal(err)
	}
	c.RunFor(4 * time.Second)
	if sink.count(types.EvNetFail) != 1 {
		t.Fatalf("net.fail events: %v", sink.events)
	}
	ev, _ := sink.first(types.EvNetFail)
	if ev.Node != victim || ev.NIC != 1 {
		t.Fatalf("net.fail contents: %+v", ev)
	}
	if err := c.Net.SetNICUp(victim, 1, true); err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Second)
	if sink.count(types.EvNetRecover) != 1 {
		t.Fatalf("net.recover events: %v", sink.events)
	}
}

func TestESKillRestartPreservesSubscriptions(t *testing.T) {
	c := smallCluster(t)
	sink := newEventSink(t, c, 4, []types.EventType{
		types.EvServiceFail, types.EvServiceRecover, types.EvProcFail, types.EvProcRecover,
	})
	server := c.Topo.Partitions[1].Server
	if err := c.Host(server).Kill(types.SvcES); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if !c.Host(server).Running(types.SvcES) {
		t.Fatal("ES not restarted")
	}
	if sink.count(types.EvServiceFail) != 1 || sink.count(types.EvServiceRecover) != 1 {
		t.Fatalf("service events: %v", sink.events)
	}
	// The subscription survived the ES restart (checkpoint restore):
	// a WD kill afterwards must still reach the sink.
	if err := c.Host(types.NodeID(12)).Kill(types.SvcWD); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if sink.count(types.EvProcFail) != 1 {
		t.Fatalf("post-restart events lost: %v", sink.events)
	}
}

func TestGSDKillTakeoverAndRejoin(t *testing.T) {
	c := smallCluster(t)
	sink := newEventSink(t, c, 4, []types.EventType{
		types.EvMemberSuspect, types.EvMemberFail, types.EvMemberRecover,
	})
	server := c.Topo.Partitions[2].Server
	if err := c.Host(server).Kill(types.SvcGSD); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	if sink.count(types.EvMemberFail) != 1 {
		t.Fatalf("member.fail events: %v", sink.events)
	}
	if sink.count(types.EvMemberRecover) != 1 {
		t.Fatalf("member.recover events: %v", sink.events)
	}
	if !c.Host(server).Running(types.SvcGSD) {
		t.Fatal("GSD not respawned in place")
	}
	// The respawned GSD resumed partition monitoring: kill a WD there.
	victim := c.Topo.Partitions[2].Members[4]
	if err := c.Host(victim).Kill(types.SvcWD); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	if !c.Host(victim).Running(types.SvcWD) {
		t.Fatal("respawned GSD does not recover WDs")
	}
}

// TestTakeoverExpiryRetriesRecovery drives the takeoverPending deadline
// path: the partition server dies, and every GSD the takeover machinery
// respawns on a backup is killed mid-exec (GSD exec latency is seconds, the
// sabotage loop steps in 50 ms), so no attempt ever produces a member join
// and the spawn ack alone looks like success. The armed slot must expire
// rather than wedge, the dead-slot sweep must re-attempt, and once the
// sabotage stops the next attempt must recover the partition.
func TestTakeoverExpiryRetriesRecovery(t *testing.T) {
	c := smallCluster(t)
	sink := newEventSink(t, c, 4, []types.EventType{types.EvMemberRecover})
	part := c.Topo.Partitions[2]
	candidates := append([]types.NodeID{}, part.Backups...)

	c.Host(part.Server).PowerOff()

	// The sabotage window exceeds the takeover deadline
	// (2*meta-interval + RPC timeout + 10 s), so at least one armed
	// attempt expires with its spawn already acked — the only way a
	// second kill can happen is the sweep retrying after expiry.
	kills := 0
	pendingSeen := false
	for i := 0; i < 600; i++ { // 30 s in 50 ms steps
		c.RunFor(50 * time.Millisecond)
		for _, n := range candidates {
			if c.Host(n).Present(types.SvcGSD) {
				_ = c.Host(n).Kill(types.SvcGSD)
				kills++
			}
		}
		for _, p := range c.Topo.Partitions {
			if p.ID == part.ID {
				continue
			}
			if g := c.Kernel.GSD(p.ID); g != nil {
				for _, pend := range g.TakeoverPending() {
					if pend == part.ID {
						pendingSeen = true
					}
				}
			}
		}
	}
	if kills < 2 {
		t.Fatalf("sabotage killed %d respawned GSDs, want >= 2 (expired attempt never retried)", kills)
	}
	if !pendingSeen {
		t.Fatal("no surviving member ever drove the dead partition's recovery")
	}

	// Sabotage over: the in-flight attempt expires, the sweep re-arms,
	// and the uninterrupted spawn completes the migration.
	c.RunFor(40 * time.Second)
	running := false
	for _, n := range candidates {
		if c.Host(n).Running(types.SvcGSD) {
			running = true
		}
	}
	if !running {
		t.Fatal("partition GSD never recovered after sabotage stopped")
	}
	if sink.count(types.EvMemberRecover) == 0 {
		t.Fatalf("no member.recover after recovery: %v", sink.events)
	}
	for _, p := range c.Topo.Partitions {
		if g := c.Kernel.GSD(p.ID); g != nil && p.ID != part.ID {
			if pend := g.TakeoverPending(); len(pend) != 0 {
				t.Fatalf("member %v still holds pending takeovers: %v", p.ID, pend)
			}
		}
	}
}

func TestServerNodeDeathMigratesServices(t *testing.T) {
	c := smallCluster(t)
	sink := newEventSink(t, c, 4, []types.EventType{
		types.EvMemberFail, types.EvMemberRecover,
	})
	part := c.Topo.Partitions[2]
	c.Host(part.Server).PowerOff()
	c.RunFor(15 * time.Second)
	if sink.count(types.EvMemberFail) != 1 || sink.count(types.EvMemberRecover) != 1 {
		t.Fatalf("member events: %v", sink.events)
	}
	backup := part.Backups[0]
	h := c.Host(backup)
	for _, svc := range []string{types.SvcGSD, types.SvcES, types.SvcDB, types.SvcCkpt} {
		if !h.Running(svc) {
			t.Fatalf("backup node missing %s after migration", svc)
		}
	}
	// The migrated partition keeps being monitored: a WD kill there is
	// recovered by the migrated GSD.
	victim := part.Members[5]
	if err := c.Host(victim).Kill(types.SvcWD); err != nil {
		t.Fatal(err)
	}
	c.RunFor(6 * time.Second)
	if !c.Host(victim).Running(types.SvcWD) {
		t.Fatal("migrated GSD does not recover WDs")
	}
	// Cluster-wide bulletin queries cover the migrated partition again
	// (detectors re-targeted by the announce).
	var got *bulletin.QueryAck
	client := core.NewClientProc("q2", 0, 0)
	client.OnStart = func(cp *core.ClientProc) {
		cp.Bulletin.Query(bulletin.ScopeCluster, func(ack bulletin.QueryAck, ok bool) {
			if ok {
				got = &ack
			}
		})
	}
	if _, err := c.Host(5).Spawn(client); err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Second)
	if got == nil {
		t.Fatal("no bulletin answer after migration")
	}
	for _, missing := range got.Missing {
		if missing == part.ID {
			t.Fatalf("migrated partition still missing from federation: %v", got.Missing)
		}
	}
	found := false
	for _, snap := range got.Snapshots {
		if snap.Partition == part.ID && len(snap.Res) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("migrated partition contributes no data")
	}
}

func TestJobLoadRunFinish(t *testing.T) {
	c := smallCluster(t)
	var loadAck *ppm.LoadAck
	var done *ppm.JobDone
	client := core.NewClientProc("jobmgr", 0, 0)
	client.OnStart = func(cp *core.ClientProc) {
		cp.LoadJob(10, ppm.JobSpec{ID: 7, Name: "hpl", Duration: 3 * time.Second}, "",
			func(ack ppm.LoadAck) { loadAck = &ack })
	}
	client.OnMessage = func(cp *core.ClientProc, msg types.Message) {
		if msg.Type == ppm.MsgJobDone {
			if jd, ok := msg.Payload.(ppm.JobDone); ok {
				done = &jd
			}
		}
	}
	if _, err := c.Host(2).Spawn(client); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if loadAck == nil || !loadAck.OK {
		t.Fatalf("load ack: %+v", loadAck)
	}
	if !c.Host(10).Running("job/7") {
		t.Fatal("job not running")
	}
	c.RunFor(4 * time.Second)
	if done == nil || !done.Normal || done.Job != 7 {
		t.Fatalf("job done: %+v", done)
	}
	if c.Host(10).Running("job/7") {
		t.Fatal("job still running after completion")
	}
}

// TestDBRestartRelistsRunningJob: a bulletin instance killed in place
// restarts empty, and a job's row is exported only at its start and exit.
// The GSD announces itself once the instance runs again, and the announce
// makes the partition's detectors re-send their running jobs' rows, so the
// job is listed again within half a detector sample interval.
func TestDBRestartRelistsRunningJob(t *testing.T) {
	c := smallCluster(t)
	const node = types.NodeID(10)
	part, _ := c.Topo.PartitionOf(node)
	client := core.NewClientProc("jobmgr", part.ID, part.Server)
	client.OnStart = func(cp *core.ClientProc) {
		cp.LoadJob(node, ppm.JobSpec{ID: 7, Name: "hpl", Duration: time.Minute}, "", func(ppm.LoadAck) {})
	}
	if _, err := c.Host(2).Spawn(client); err != nil {
		t.Fatal(err)
	}
	listed := func() int {
		n := -1
		client.Bulletin.Query(bulletin.ScopePartition, func(ack bulletin.QueryAck, ok bool) {
			if ok {
				n = len(ack.Snapshots[0].Apps)
			}
		})
		c.RunFor(200 * time.Millisecond)
		return n
	}
	c.RunFor(2 * time.Second)
	if !c.Host(node).Running("job/7") {
		t.Fatal("job not running")
	}
	if n := listed(); n != 1 {
		t.Fatalf("apps before the kill = %d, want 1", n)
	}
	db := c.Host(part.Server)
	if err := db.Kill(types.SvcDB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && !db.Running(types.SvcDB); i++ {
		c.RunFor(10 * time.Millisecond)
	}
	if !db.Running(types.SvcDB) {
		t.Fatal("bulletin not restarted")
	}
	c.RunFor(c.Spec.Params.DetectorSampleInterval / 2)
	if n := listed(); n != 1 {
		t.Fatalf("apps after the restart = %d, want the running job listed again", n)
	}
}

func TestPExecTreeFanout(t *testing.T) {
	c := smallCluster(t)
	var results []ppm.ExecResult
	client := core.NewClientProc("pexec", 0, 0)
	client.OnStart = func(cp *core.ClientProc) {
		var nodes []types.NodeID
		for _, ni := range c.Topo.Nodes {
			nodes = append(nodes, ni.ID)
		}
		tok := cp.Pending.New(5*time.Second,
			func(payload any) { results = payload.(ppm.PExecAck).Results },
			func() {})
		cp.H.Send(types.Addr{Node: nodes[0], Service: types.SvcPPM}, types.AnyNIC,
			ppm.MsgPExec, ppm.PExecReq{Token: tok, Cmd: "hostname", Nodes: nodes, Fanout: 4})
	}
	if _, err := c.Host(0).Spawn(client); err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Second)
	if len(results) != c.Topo.NumNodes() {
		t.Fatalf("pexec results: %d of %d nodes", len(results), c.Topo.NumNodes())
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("pexec error on %v: %s", r.Node, r.Err)
		}
		if seen[r.Output] {
			t.Fatalf("duplicate output %q", r.Output)
		}
		seen[r.Output] = true
		if want := fmt.Sprintf("node%d", r.Node); r.Output != want {
			t.Fatalf("output for %v = %q", r.Node, r.Output)
		}
	}
}

func TestDeterministicSameSeed(t *testing.T) {
	run := func() float64 {
		c, err := Build(Small())
		if err != nil {
			t.Fatal(err)
		}
		c.WarmUp()
		c.Host(12).PowerOff()
		c.RunFor(30 * time.Second)
		return c.Metrics.Counter("net.msgs").Value()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs diverged: %g vs %g messages", a, b)
	}
}

// configReconfig builds an add-node request (helper keeps the test import
// list tidy).
func configReconfig(token uint64) any {
	return config.ReconfigReq{Token: token, Op: config.OpAddNode, Node: 1000, Partition: 1}
}

func TestConfigChangeEventReachesConsumers(t *testing.T) {
	c := smallCluster(t)
	sink := newEventSink(t, c, 21, []types.EventType{types.EvConfigChange})
	// Apply a dynamic reconfiguration through the configuration service.
	client := core.NewClientProc("reconf", 0, 0)
	client.OnStart = func(cp *core.ClientProc) {
		cp.H.Send(types.Addr{Node: c.Topo.Master, Service: types.SvcConfig}, types.AnyNIC,
			"cfg.reconfig", configReconfig(1))
	}
	if _, err := c.Host(6).Spawn(client); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	if sink.count(types.EvConfigChange) != 1 {
		t.Fatalf("config change events: %v", sink.events)
	}
}

// TestPaperTestbedSteadyState runs the paper's 136-node configuration for
// a full virtual hour with no injected faults: the detection machinery
// must raise no false alarms at 30-second heartbeats.
func TestPaperTestbedSteadyState(t *testing.T) {
	c, err := Build(PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	c.WarmUp()
	sink := newEventSink(t, c, 20, []types.EventType{
		types.EvNodeSuspect, types.EvNetSuspect, types.EvServiceSuspect, types.EvMemberSuspect,
		types.EvNodeFail, types.EvNetFail, types.EvProcFail, types.EvServiceFail, types.EvMemberFail,
	})
	c.RunFor(time.Hour)
	if len(sink.events) != 0 {
		t.Fatalf("false alarms in fault-free steady state: %v", sink.events)
	}
	// Everything still running after an hour.
	for _, p := range c.Topo.Partitions {
		if !c.Host(p.Server).Running(types.SvcGSD) {
			t.Fatalf("GSD of %v gone", p.ID)
		}
	}
}
