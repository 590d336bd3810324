package heartbeat_test

import (
	"testing"
	"time"

	"repro/internal/heartbeat"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/watchd"
)

// gsdStub hosts a heartbeat.Monitor inside a process so the full WD -> network ->
// monitor -> probe -> agent pipeline runs under the simulator.
type gsdStub struct {
	cfg heartbeat.Config
	mon *heartbeat.Monitor
	h   *simhost.Handle

	suspects      []types.NodeID
	nicSuspects   [][2]int
	verdicts      []heartbeat.Verdict
	recovered     []types.NodeID
	nicRecovered  [][2]int
	suspectTimes  []time.Time
	verdictTimes  []time.Time
	recoveryTimes []time.Time
	quarantines   []bool    // OnQuarantine's on argument, in order
	lastBeat      time.Time // arrival of the latest heartbeat copy
}

func (g *gsdStub) Service() string { return types.SvcGSD }
func (g *gsdStub) OnStop()         {}
func (g *gsdStub) Start(h *simhost.Handle) {
	g.h = h
	g.mon = heartbeat.NewMonitor(h, g.cfg, heartbeat.Callbacks{
		OnSuspect: func(n types.NodeID) {
			g.suspects = append(g.suspects, n)
			g.suspectTimes = append(g.suspectTimes, h.Now())
		},
		OnNICSuspect: func(n types.NodeID, nic int) {
			g.nicSuspects = append(g.nicSuspects, [2]int{int(n), nic})
		},
		OnDiagnosed: func(v heartbeat.Verdict) {
			g.verdicts = append(g.verdicts, v)
			g.verdictTimes = append(g.verdictTimes, h.Now())
		},
		OnRecovered: func(n types.NodeID, wasDown bool) {
			g.recovered = append(g.recovered, n)
			g.recoveryTimes = append(g.recoveryTimes, h.Now())
		},
		OnNICRecovered: func(n types.NodeID, nic int) {
			g.nicRecovered = append(g.nicRecovered, [2]int{int(n), nic})
		},
		OnQuarantine: func(n types.NodeID, on bool) {
			g.quarantines = append(g.quarantines, on)
		},
	})
}
func (g *gsdStub) Receive(msg types.Message) {
	switch msg.Type {
	case heartbeat.MsgHeartbeat:
		if hb, ok := msg.Payload.(heartbeat.Heartbeat); ok {
			g.lastBeat = g.h.Now()
			g.mon.HandleHeartbeat(hb, msg.NIC)
		}
	case heartbeat.MsgIndirectAck:
		if ack, ok := msg.Payload.(heartbeat.IndirectProbeAck); ok {
			g.mon.HandleIndirectAck(ack)
		}
	case simhost.MsgProbeAck:
		if ack, ok := msg.Payload.(simhost.ProbeAck); ok {
			g.mon.HandleProbeAck(ack)
		}
	}
}

const (
	tInterval = time.Second
	tGrace    = 50 * time.Millisecond
	tProbeTO  = 500 * time.Millisecond
)

// rig: node 0 = GSD stub, node 1 = WD under test.
func rig(t *testing.T) (*sim.Engine, *simnet.Network, []*simhost.Host, *gsdStub, *watchd.WD) {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, eng.Rand(), 2, simnet.DefaultParams(), metrics.NewRegistry())
	hosts := []*simhost.Host{
		simhost.New(0, net, eng, eng.Rand(), simhost.DefaultCosts()),
		simhost.New(1, net, eng, eng.Rand(), simhost.DefaultCosts()),
	}
	g := &gsdStub{cfg: heartbeat.Config{
		Interval: tInterval, Grace: tGrace, ProbeTimeout: tProbeTO, NICs: 3, Service: types.SvcWD,
	}}
	if _, err := hosts[0].Spawn(g); err != nil {
		t.Fatal(err)
	}
	wd := watchd.New(watchd.Spec{Partition: 0, GSDNode: 0, Interval: tInterval, NICs: 3})
	if _, err := hosts[1].Spawn(wd); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2500 * time.Millisecond) // GSD exec latency is 2s, WD 80ms
	g.mon.Watch(1)
	return eng, net, hosts, g, wd
}

func TestHealthySteadyState(t *testing.T) {
	eng, _, _, g, _ := rig(t)
	eng.RunFor(10 * tInterval)
	if len(g.suspects) != 0 || len(g.verdicts) != 0 {
		t.Fatalf("healthy node produced suspects=%v verdicts=%v", g.suspects, g.verdicts)
	}
	if g.mon.Status(1) != heartbeat.StatusHealthy {
		t.Fatalf("status = %v", g.mon.Status(1))
	}
}

// runUntilNextBeat advances the simulation to 10ms past the next heartbeat
// delivery, the injection phase the paper's fault injection used.
func runUntilNextBeat(eng *sim.Engine, net *simnet.Network) {
	seen := false
	net.Trace = func(m types.Message) {
		if m.Type == heartbeat.MsgHeartbeat {
			seen = true
		}
	}
	for !seen && eng.Step() {
	}
	net.Trace = nil
	eng.RunFor(10 * time.Millisecond)
}

func TestProcessFaultDetectDiagnoseRecover(t *testing.T) {
	eng, net, hosts, g, _ := rig(t)
	eng.RunFor(3 * tInterval)
	// Kill the WD just after a heartbeat, as the paper's fault injection does.
	runUntilNextBeat(eng, net)
	injected := eng.Now()
	if err := hosts[1].Kill(types.SvcWD); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * tInterval)
	if len(g.suspects) != 1 || g.suspects[0] != 1 {
		t.Fatalf("suspects = %v", g.suspects)
	}
	detect := g.suspectTimes[0].Sub(injected)
	// Detection takes roughly one heartbeat interval (+grace), minus the
	// small head start from injecting just after a beat.
	if detect < tInterval-100*time.Millisecond || detect > tInterval+2*tGrace {
		t.Fatalf("detect time = %v, want ~%v", detect, tInterval)
	}
	if len(g.verdicts) != 1 || g.verdicts[0].Kind != types.FaultProcess {
		t.Fatalf("verdicts = %v", g.verdicts)
	}
	diagnose := g.verdictTimes[0].Sub(g.suspectTimes[0])
	// Process diagnosis ends at the first probe ack: agent delay + RTT.
	if diagnose < 280*time.Millisecond || diagnose > tProbeTO {
		t.Fatalf("diagnose time = %v, want agent-delay scale", diagnose)
	}
	// Restart the WD: heartbeats resume and the monitor reports recovery.
	wd2 := watchd.New(watchd.Spec{Partition: 0, GSDNode: 0, Interval: tInterval, NICs: 3})
	if _, err := hosts[1].Spawn(wd2); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * tInterval)
	if len(g.recovered) != 1 || g.recovered[0] != 1 {
		t.Fatalf("recovered = %v", g.recovered)
	}
	if g.mon.Status(1) != heartbeat.StatusHealthy {
		t.Fatalf("status after recovery = %v", g.mon.Status(1))
	}
}

func TestNodeFaultDiagnosisTakesProbeTimeout(t *testing.T) {
	eng, net, hosts, g, _ := rig(t)
	eng.RunFor(3 * tInterval)
	runUntilNextBeat(eng, net)
	hosts[1].PowerOff()
	eng.RunFor(3 * tInterval)
	if len(g.verdicts) != 1 || g.verdicts[0].Kind != types.FaultNode {
		t.Fatalf("verdicts = %v", g.verdicts)
	}
	diagnose := g.verdictTimes[0].Sub(g.suspectTimes[0])
	if diagnose != tProbeTO {
		t.Fatalf("node diagnosis = %v, want exactly the probe timeout %v", diagnose, tProbeTO)
	}
	if g.mon.Status(1) != heartbeat.StatusDown {
		t.Fatalf("status = %v, want down", g.mon.Status(1))
	}
	if got := g.mon.DownNodes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DownNodes = %v", got)
	}
	// Power back on and restart the WD: recovery must be reported as a
	// node recovery.
	hosts[1].PowerOn()
	wd2 := watchd.New(watchd.Spec{Partition: 0, GSDNode: 0, Interval: tInterval, NICs: 3})
	if _, err := hosts[1].Spawn(wd2); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * tInterval)
	if len(g.recovered) != 1 {
		t.Fatalf("recovered = %v", g.recovered)
	}
	if g.mon.Status(1) != heartbeat.StatusHealthy {
		t.Fatalf("status after node recovery = %v", g.mon.Status(1))
	}
}

func TestNICFaultDiagnosedByMatrixAnalysis(t *testing.T) {
	eng, net, _, g, _ := rig(t)
	eng.RunFor(3 * tInterval)
	eng.RunFor(10 * time.Millisecond)
	if err := net.SetNICUp(1, 2, false); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(3 * tInterval)
	// No node-level suspicion: heartbeats still arrive on NICs 0 and 1.
	if len(g.suspects) != 0 {
		t.Fatalf("node-level suspects for a NIC fault: %v", g.suspects)
	}
	if len(g.nicSuspects) != 1 || g.nicSuspects[0] != [2]int{1, 2} {
		t.Fatalf("nic suspects = %v", g.nicSuspects)
	}
	if len(g.verdicts) != 1 || g.verdicts[0].Kind != types.FaultNIC || g.verdicts[0].NIC != 2 {
		t.Fatalf("verdicts = %v", g.verdicts)
	}
	if !g.mon.NICDown(1, 2) {
		t.Fatal("monitor does not report NIC 2 down")
	}
	// Restore: the next heartbeat on NIC 2 reports recovery.
	if err := net.SetNICUp(1, 2, true); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * tInterval)
	if len(g.nicRecovered) != 1 || g.nicRecovered[0] != [2]int{1, 2} {
		t.Fatalf("nic recovered = %v", g.nicRecovered)
	}
	if g.mon.NICDown(1, 2) {
		t.Fatal("NIC still marked down after recovery")
	}
}

func TestUnwatchStopsMonitoring(t *testing.T) {
	eng, _, hosts, g, _ := rig(t)
	eng.RunFor(2 * tInterval)
	g.mon.Unwatch(1)
	hosts[1].PowerOff()
	eng.RunFor(5 * tInterval)
	if len(g.suspects) != 0 {
		t.Fatalf("unwatched node produced suspects: %v", g.suspects)
	}
	if g.mon.Status(1) != heartbeat.StatusDown { // unknown nodes report down
		t.Fatalf("unknown node status = %v", g.mon.Status(1))
	}
}

func TestWDFollowsGSDAnnounce(t *testing.T) {
	eng, net, _, _, wd := rig(t)
	// Move the "GSD" to node 0's address but a different node id in the
	// announce; the WD should retarget.
	var gotAt types.NodeID = -1
	net.Register(types.Addr{Node: 0, Service: "sink"}, func(m types.Message) {})
	_ = gotAt
	_ = net.Send(types.Message{
		From:    types.Addr{Node: 0, Service: types.SvcGSD},
		To:      types.Addr{Node: 1, Service: types.SvcWD},
		NIC:     0,
		Type:    heartbeat.MsgGSDAnnounce,
		Payload: heartbeat.GSDAnnounce{Partition: 0, GSDNode: 0},
	})
	// Announce for a different partition must be ignored.
	_ = net.Send(types.Message{
		From:    types.Addr{Node: 0, Service: types.SvcGSD},
		To:      types.Addr{Node: 1, Service: types.SvcWD},
		NIC:     0,
		Type:    heartbeat.MsgGSDAnnounce,
		Payload: heartbeat.GSDAnnounce{Partition: 9, GSDNode: 42},
	})
	eng.RunFor(time.Second)
	if wd.GSDNode() != 0 {
		t.Fatalf("WD target = %v, want 0 (foreign-partition announce ignored)", wd.GSDNode())
	}
}

func TestWatchIdempotent(t *testing.T) {
	eng, _, _, g, _ := rig(t)
	g.mon.Watch(1) // second watch must not reset state
	eng.RunFor(2 * tInterval)
	if snap := g.mon.Snapshot(); len(snap) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestProberFirstAckWins(t *testing.T) {
	eng := sim.New(1)
	net := simnet.New(eng, eng.Rand(), 2, simnet.DefaultParams(), metrics.NewRegistry())
	hosts := []*simhost.Host{
		simhost.New(0, net, eng, eng.Rand(), simhost.DefaultCosts()),
		simhost.New(1, net, eng, eng.Rand(), simhost.DefaultCosts()),
	}
	type proberProc struct {
		gsdStub // reuse Service/OnStop
	}
	_ = proberProc{}
	var results []heartbeat.ProbeResult
	owner := &proberOwner{onResult: func(r heartbeat.ProbeResult) { results = append(results, r) }}
	if _, err := hosts[0].Spawn(owner); err != nil {
		t.Fatal(err)
	}
	if _, err := hosts[1].Spawn(&dummy{svc: types.SvcWD}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(200 * time.Millisecond)
	owner.prober.Probe(1, types.SvcWD, 500*time.Millisecond, owner.onResult)
	eng.Run()
	if len(results) != 1 || !results[0].NodeAlive || !results[0].ServiceRunning {
		t.Fatalf("probe results = %+v", results)
	}
	// Now power the target off: silence means NodeAlive=false after timeout.
	hosts[1].PowerOff()
	owner.prober.Probe(1, types.SvcWD, 500*time.Millisecond, owner.onResult)
	eng.Run()
	if len(results) != 2 || results[1].NodeAlive {
		t.Fatalf("probe of dead node = %+v", results)
	}
}

type proberOwner struct {
	prober   *heartbeat.Prober
	onResult func(heartbeat.ProbeResult)
}

func (p *proberOwner) Service() string { return "prober" }
func (p *proberOwner) OnStop()         {}
func (p *proberOwner) Start(h *simhost.Handle) {
	p.prober = heartbeat.NewProber(h, 3)
}
func (p *proberOwner) Receive(msg types.Message) {
	if ack, ok := msg.Payload.(simhost.ProbeAck); ok {
		p.prober.HandleProbeAck(ack)
	}
}

type dummy struct{ svc string }

func (d *dummy) Service() string           { return d.svc }
func (d *dummy) Start(h *simhost.Handle)   {}
func (d *dummy) Receive(msg types.Message) {}
func (d *dummy) OnStop()                   {}

// TestHeartbeatLossFalseAlarm exercises the diagnosis branch where the
// node's heartbeats are lost in the network but the daemon is alive: the
// probe answers Running=true, the monitor classifies a network-level fault
// and resumes monitoring instead of declaring the daemon dead.
func TestHeartbeatLossFalseAlarm(t *testing.T) {
	eng, net, _, g, _ := rig(t)
	eng.RunFor(3 * tInterval)
	// Swallow every heartbeat from node 1; probes still flow.
	net.Filter = func(m types.Message, deliver func()) {
		if m.Type != heartbeat.MsgHeartbeat {
			deliver()
		}
	}
	eng.RunFor(3 * tInterval)
	if len(g.suspects) == 0 {
		t.Fatal("lost heartbeats never raised suspicion")
	}
	foundNetVerdict := false
	for _, v := range g.verdicts {
		switch v.Kind {
		case types.FaultNIC:
			if v.NIC == types.AnyNIC {
				foundNetVerdict = true
			}
		case types.FaultProcess, types.FaultNode:
			t.Fatalf("live daemon misdiagnosed as %v", v.Kind)
		}
	}
	if !foundNetVerdict {
		t.Fatalf("no network-level verdict: %+v", g.verdicts)
	}
	// Restore delivery: the node must return to healthy monitoring.
	net.Filter = nil
	eng.RunFor(3 * tInterval)
	if g.mon.Status(1) != heartbeat.StatusHealthy {
		t.Fatalf("status after restoring heartbeats = %v", g.mon.Status(1))
	}
}
