package simhost

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/types"
)

// testProc is a minimal Process that records lifecycle calls and echoes
// messages to a sink.
type testProc struct {
	svc     string
	started bool
	stopped bool
	got     []types.Message
	onStart func(h *Handle)
}

func (p *testProc) Service() string { return p.svc }
func (p *testProc) Start(h *Handle) {
	p.started = true
	if p.onStart != nil {
		p.onStart(h)
	}
}
func (p *testProc) Receive(m types.Message) { p.got = append(p.got, m) }
func (p *testProc) OnStop()                 { p.stopped = true }

func testRig(t *testing.T, nodes int) (*sim.Engine, *simnet.Network, []*Host) {
	t.Helper()
	eng := sim.New(1)
	net := simnet.New(eng, eng.Rand(), nodes, simnet.DefaultParams(), metrics.NewRegistry())
	hosts := make([]*Host, nodes)
	for i := range hosts {
		hosts[i] = New(types.NodeID(i), net, eng, eng.Rand(), DefaultCosts())
	}
	return eng, net, hosts
}

func TestSpawnPaysExecLatency(t *testing.T) {
	eng, net, hosts := testRig(t, 1)
	p := &testProc{svc: types.SvcGSD}
	if _, err := hosts[0].Spawn(p); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	if p.started || hosts[0].Running(types.SvcGSD) {
		t.Fatal("GSD ran before its 2s exec latency elapsed")
	}
	eng.RunFor(1500 * time.Millisecond)
	if !p.started || !hosts[0].Running(types.SvcGSD) {
		t.Fatal("GSD never started after exec latency")
	}
	if !net.Registered(types.Addr{Node: 0, Service: types.SvcGSD}) {
		t.Fatal("started process not registered on the network")
	}
}

func TestSpawnDuplicateRejected(t *testing.T) {
	_, _, hosts := testRig(t, 1)
	if _, err := hosts[0].Spawn(&testProc{svc: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := hosts[0].Spawn(&testProc{svc: "x"}); err == nil {
		t.Fatal("duplicate spawn accepted")
	}
}

func TestKillNotifiesWatchersAndStopsProc(t *testing.T) {
	eng, net, hosts := testRig(t, 1)
	var events []ProcEvent
	hosts[0].Watch(func(ev ProcEvent) { events = append(events, ev) })
	p := &testProc{svc: types.SvcES}
	if _, err := hosts[0].Spawn(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(events) != 1 || !events[0].Started {
		t.Fatalf("want start event, got %+v", events)
	}
	if err := hosts[0].Kill(types.SvcES); err != nil {
		t.Fatal(err)
	}
	if !p.stopped {
		t.Fatal("OnStop not called on kill")
	}
	if len(events) != 2 || events[1].Started || events[1].Cause != ExitKilled {
		t.Fatalf("want killed event, got %+v", events)
	}
	if net.Registered(types.Addr{Node: 0, Service: types.SvcES}) {
		t.Fatal("killed process still registered")
	}
	if err := hosts[0].Kill(types.SvcES); err == nil {
		t.Fatal("double kill succeeded")
	}
}

func TestKillDuringExecLatency(t *testing.T) {
	eng, _, hosts := testRig(t, 1)
	p := &testProc{svc: types.SvcGSD}
	if _, err := hosts[0].Spawn(p); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second) // mid exec
	if err := hosts[0].Kill(types.SvcGSD); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if p.started {
		t.Fatal("process killed mid-exec still started")
	}
	if p.stopped {
		t.Fatal("OnStop called for a process that never started")
	}
}

func TestHandleTimersDieWithProcess(t *testing.T) {
	eng, _, hosts := testRig(t, 1)
	fired := 0
	p := &testProc{svc: "d", onStart: func(h *Handle) {
		h.After(10*time.Second, func() { fired++ })
		h.Every(time.Second, func() { fired++ })
	}}
	if _, err := hosts[0].Spawn(p); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(3500 * time.Millisecond) // start (~100ms) + ~3 ticks
	firedBeforeKill := fired
	if firedBeforeKill == 0 {
		t.Fatal("ticker never fired")
	}
	if err := hosts[0].Kill("d"); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Minute)
	if fired != firedBeforeKill {
		t.Fatalf("timers fired after death: %d -> %d", firedBeforeKill, fired)
	}
}

// TestHandleStoppedTimersAreFreed is the leak regression test: a timer
// armed through After and stopped before it fires must leave nothing
// behind in the handle.
func TestHandleStoppedTimersAreFreed(t *testing.T) {
	eng, _, hosts := testRig(t, 1)
	var hd *Handle
	if _, err := hosts[0].Spawn(&testProc{svc: "d", onStart: func(h *Handle) { hd = h }}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	if hd == nil {
		t.Fatal("process never started")
	}
	const n = 50_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		hd.After(time.Hour, func() {}).Stop()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(hd) // the live handle is what must not retain them
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew >= 16*n {
		t.Fatalf("heap grew %d B over %d stopped timers (%d B each), want < 16 B each", grew, n, grew/n)
	}
}

func TestProcessExit(t *testing.T) {
	eng, _, hosts := testRig(t, 1)
	var events []ProcEvent
	hosts[0].Watch(func(ev ProcEvent) { events = append(events, ev) })
	p := &testProc{svc: "job/1"}
	p.onStart = func(h *Handle) {
		h.After(5*time.Second, h.Exit)
	}
	if _, err := hosts[0].Spawn(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if hosts[0].Running("job/1") {
		t.Fatal("exited job still running")
	}
	last := events[len(events)-1]
	if last.Started || last.Cause != ExitNormal {
		t.Fatalf("want normal exit event, got %+v", last)
	}
	if !p.stopped {
		t.Fatal("OnStop not called on voluntary exit")
	}
}

func TestPowerOffKillsEverythingSilently(t *testing.T) {
	eng, net, hosts := testRig(t, 1)
	var exits int
	hosts[0].Watch(func(ev ProcEvent) {
		if !ev.Started {
			exits++
		}
	})
	p := &testProc{svc: types.SvcWD}
	if _, err := hosts[0].Spawn(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	hosts[0].PowerOff()
	if exits != 0 {
		t.Fatal("power-off produced watcher notifications; it must be silent")
	}
	if hosts[0].Up() || net.NodeUp(0) {
		t.Fatal("node still up after power-off")
	}
	if net.Registered(types.Addr{Node: 0, Service: types.SvcAgent}) {
		t.Fatal("agent still registered after power-off")
	}
	if _, err := hosts[0].Spawn(&testProc{svc: "y"}); err == nil {
		t.Fatal("spawn on a powered-off node succeeded")
	}
}

func TestPowerOnColdBoot(t *testing.T) {
	eng, net, hosts := testRig(t, 1)
	if _, err := hosts[0].Spawn(&testProc{svc: types.SvcWD}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	hosts[0].PowerOff()
	eng.RunFor(time.Minute)
	hosts[0].PowerOn()
	if !hosts[0].Up() || !net.NodeUp(0) {
		t.Fatal("node not up after power-on")
	}
	if hosts[0].Running(types.SvcWD) {
		t.Fatal("daemons survived a power cycle; boot must be cold")
	}
	if !net.Registered(types.Addr{Node: 0, Service: types.SvcAgent}) {
		t.Fatal("agent not back after power-on")
	}
}

func TestAgentProbe(t *testing.T) {
	eng, net, hosts := testRig(t, 2)
	if _, err := hosts[1].Spawn(&testProc{svc: types.SvcWD}); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	var acks []ProbeAck
	var ackAt time.Duration
	net.Register(types.Addr{Node: 0, Service: "prober"}, func(m types.Message) {
		if a, ok := m.Payload.(ProbeAck); ok {
			acks = append(acks, a)
			ackAt = eng.Elapsed()
		}
	})
	start := eng.Elapsed()
	err := net.Send(types.Message{
		From: types.Addr{Node: 0, Service: "prober"},
		To:   types.Addr{Node: 1, Service: types.SvcAgent},
		NIC:  1, Type: MsgProbe,
		Payload: ProbeReq{Service: types.SvcWD, Token: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(acks) != 1 {
		t.Fatalf("got %d probe acks, want 1", len(acks))
	}
	if !acks[0].Running || acks[0].Token != 7 || acks[0].Node != 1 {
		t.Fatalf("bad ack: %+v", acks[0])
	}
	// The probe costs AgentProbeDelay plus two network hops.
	if rtt := ackAt - start; rtt < DefaultCosts().AgentProbeDelay {
		t.Fatalf("probe RTT %v below agent delay", rtt)
	}

	// Probe for a missing service reports Running=false.
	acks = nil
	_ = net.Send(types.Message{
		From: types.Addr{Node: 0, Service: "prober"},
		To:   types.Addr{Node: 1, Service: types.SvcAgent},
		NIC:  0, Type: MsgProbe,
		Payload: ProbeReq{Service: types.SvcGSD, Token: 8},
	})
	eng.Run()
	if len(acks) != 1 || acks[0].Running {
		t.Fatalf("probe of missing service: %+v", acks)
	}
}

func TestAgentProbeRepliesOnRequestNIC(t *testing.T) {
	eng, net, hosts := testRig(t, 2)
	_ = hosts
	var gotNIC = -1
	net.Register(types.Addr{Node: 0, Service: "prober"}, func(m types.Message) {
		if m.Type == MsgProbeAck {
			gotNIC = m.NIC
		}
	})
	_ = net.Send(types.Message{
		From: types.Addr{Node: 0, Service: "prober"},
		To:   types.Addr{Node: 1, Service: types.SvcAgent},
		NIC:  2, Type: MsgProbe, Payload: ProbeReq{Service: "x"},
	})
	eng.Run()
	if gotNIC != 2 {
		t.Fatalf("probe ack came back on NIC %d, want 2", gotNIC)
	}
}

func TestAgentSpawnAndKillRemote(t *testing.T) {
	eng, net, hosts := testRig(t, 2)
	hosts[1].RegisterFactory(types.SvcES, func(spec any) Process {
		return &testProc{svc: types.SvcES}
	})
	var spawnAck *SpawnAck
	var killAck *KillAck
	net.Register(types.Addr{Node: 0, Service: "mgr"}, func(m types.Message) {
		switch a := m.Payload.(type) {
		case SpawnAck:
			spawnAck = &a
		case KillAck:
			killAck = &a
		}
	})
	mgr := types.Addr{Node: 0, Service: "mgr"}
	agent := types.Addr{Node: 1, Service: types.SvcAgent}
	_ = net.Send(types.Message{From: mgr, To: agent, NIC: 0, Type: MsgSpawn,
		Payload: SpawnReq{Service: types.SvcES, Token: 1}})
	eng.Run()
	if spawnAck == nil || !spawnAck.OK {
		t.Fatalf("remote spawn failed: %+v", spawnAck)
	}
	if !hosts[1].Running(types.SvcES) {
		t.Fatal("remote spawn did not start the service")
	}
	_ = net.Send(types.Message{From: mgr, To: agent, NIC: 0, Type: MsgKill,
		Payload: KillReq{Service: types.SvcES, Token: 2}})
	eng.Run()
	if killAck == nil || !killAck.OK {
		t.Fatalf("remote kill failed: %+v", killAck)
	}
	if hosts[1].Running(types.SvcES) {
		t.Fatal("remote kill did not stop the service")
	}
}

func TestAgentSpawnUnknownFactory(t *testing.T) {
	eng, net, _ := testRig(t, 2)
	var ack *SpawnAck
	net.Register(types.Addr{Node: 0, Service: "mgr"}, func(m types.Message) {
		if a, ok := m.Payload.(SpawnAck); ok {
			ack = &a
		}
	})
	_ = net.Send(types.Message{
		From: types.Addr{Node: 0, Service: "mgr"},
		To:   types.Addr{Node: 1, Service: types.SvcAgent},
		NIC:  0, Type: MsgSpawn, Payload: SpawnReq{Service: "nope"},
	})
	eng.Run()
	if ack == nil || ack.OK {
		t.Fatalf("spawn of unknown factory should fail: %+v", ack)
	}
}

func TestAgentExecCommand(t *testing.T) {
	eng, net, hosts := testRig(t, 2)
	hosts[1].RegisterCommand("uptime", func(args []string) (string, error) {
		return "up 42s", nil
	})
	var ack *ExecAck
	net.Register(types.Addr{Node: 0, Service: "mgr"}, func(m types.Message) {
		if a, ok := m.Payload.(ExecAck); ok {
			ack = &a
		}
	})
	_ = net.Send(types.Message{
		From: types.Addr{Node: 0, Service: "mgr"},
		To:   types.Addr{Node: 1, Service: types.SvcAgent},
		NIC:  0, Type: MsgExec, Payload: ExecReq{Cmd: "uptime", Token: 3},
	})
	eng.Run()
	if ack == nil || ack.Output != "up 42s" || ack.Err != "" {
		t.Fatalf("exec ack: %+v", ack)
	}
	// Unknown command errors.
	ack = nil
	_ = net.Send(types.Message{
		From: types.Addr{Node: 0, Service: "mgr"},
		To:   types.Addr{Node: 1, Service: types.SvcAgent},
		NIC:  0, Type: MsgExec, Payload: ExecReq{Cmd: "frobnicate"},
	})
	eng.Run()
	if ack == nil || ack.Err == "" {
		t.Fatalf("unknown command should error: %+v", ack)
	}
}

func TestDeadAgentSilent(t *testing.T) {
	eng, net, hosts := testRig(t, 2)
	got := 0
	net.Register(types.Addr{Node: 0, Service: "prober"}, func(m types.Message) { got++ })
	hosts[1].PowerOff()
	_ = net.Send(types.Message{
		From: types.Addr{Node: 0, Service: "prober"},
		To:   types.Addr{Node: 1, Service: types.SvcAgent},
		NIC:  0, Type: MsgProbe, Payload: ProbeReq{Service: "x"},
	})
	eng.Run()
	if got != 0 {
		t.Fatal("powered-off agent answered a probe")
	}
}

func TestUsageModels(t *testing.T) {
	eng, _, hosts := testRig(t, 1)
	h := hosts[0]
	for i := 0; i < 50; i++ {
		eng.RunFor(5 * time.Second)
		u := h.Usage()
		if u.CPUPct < 0 || u.CPUPct > 100 || u.MemPct < 0 || u.MemPct > 100 ||
			u.SwapPct < 0 || u.SwapPct > 100 {
			t.Fatalf("usage out of bounds: %+v", u)
		}
		if u.Node != 0 {
			t.Fatalf("usage node = %v", u.Node)
		}
	}
	h.SetUsageModel(FixedUsage{Stats: types.ResourceStats{CPUPct: 50}})
	if got := h.Usage().CPUPct; got != 50 {
		t.Fatalf("fixed usage CPU = %g", got)
	}
}

func TestUsageReflectsJobs(t *testing.T) {
	eng, _, hosts := testRig(t, 1)
	h := hosts[0]
	h.SetUsageModel(FixedUsage{Stats: types.ResourceStats{CPUPct: 10}})
	if _, err := h.Spawn(&testProc{svc: "job/9"}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := h.Usage().CPUPct; got != 22 {
		t.Fatalf("usage with one job = %g, want 22", got)
	}
}

func TestSpawnServiceJobFactoryFallback(t *testing.T) {
	eng, _, hosts := testRig(t, 1)
	hosts[0].RegisterFactory("job", func(spec any) Process {
		return &testProc{svc: spec.(string)}
	})
	if _, err := hosts[0].SpawnService("job/42", "job/42"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !hosts[0].Running("job/42") {
		t.Fatal("job factory fallback did not start job/42")
	}
}
