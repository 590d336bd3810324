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

// crashRestartWD kills node 1's WD just after a heartbeat, waits for the
// process-fault verdict, and spawns a fresh WD, whose first beat reports
// the node recovered.
func crashRestartWD(t *testing.T, eng *sim.Engine, net *simnet.Network, host *simhost.Host) {
	t.Helper()
	runUntilNextBeat(eng, net)
	if err := host.Kill(types.SvcWD); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(tInterval + tProbeTO)
	if _, err := host.Spawn(watchd.New(watchd.Spec{Partition: 0, GSDNode: 0, Interval: tInterval, NICs: 3})); err != nil {
		t.Fatal(err)
	}
}

// TestFlappingNodeQuarantinedThenCleared: every suspicion adds one to the
// node's flap score, which halves every 20 intervals. Fast crash/restart
// cycles of the WD come about 1.6 intervals apart, so three of them leave
// the score just under the threshold of 3 and the fourth crosses it. The
// node then beats steadily and is cleared once the score decays to half
// the threshold.
func TestFlappingNodeQuarantinedThenCleared(t *testing.T) {
	eng, net, hosts, g, _ := rig(t)
	eng.RunFor(3 * tInterval)
	for cycle := 1; cycle <= 3; cycle++ {
		crashRestartWD(t, eng, net, hosts[1])
	}
	if len(g.suspects) != 3 || g.mon.Quarantined(1) || len(g.quarantines) != 0 {
		t.Fatalf("after three cycles: suspects %v, quarantine events %v", g.suspects, g.quarantines)
	}
	crashRestartWD(t, eng, net, hosts[1])
	if len(g.suspects) != 4 || !g.mon.Quarantined(1) || len(g.quarantines) != 1 || !g.quarantines[0] {
		t.Fatalf("after four cycles: suspects %v, quarantine events %v", g.suspects, g.quarantines)
	}

	// The score decays from about 3.7 to 1.5 in some 26 intervals.
	eng.RunFor(10 * tInterval)
	if !g.mon.Quarantined(1) {
		t.Fatal("quarantine cleared before the score decayed to half the threshold")
	}
	eng.RunFor(20 * tInterval)
	if g.mon.Quarantined(1) || len(g.quarantines) != 2 || g.quarantines[1] {
		t.Fatalf("steady node still quarantined: events %v", g.quarantines)
	}
	if g.mon.Status(1) != heartbeat.StatusHealthy {
		t.Fatalf("status = %v", g.mon.Status(1))
	}
}

// TestIndirectProbeRelaysPastCutPath: node 1's path to the GSD is cut in
// both directions, so its heartbeats and the direct diagnosis probe are
// lost. Peer node 2 reaches node 1's agent and relays a positive answer:
// the monitor must classify a network fault, never a node failure.
func TestIndirectProbeRelaysPastCutPath(t *testing.T) {
	eng := sim.New(1)
	net := simnet.New(eng, eng.Rand(), 3, simnet.DefaultParams(), metrics.NewRegistry())
	hosts := make([]*simhost.Host, 3)
	for i := range hosts {
		hosts[i] = simhost.New(types.NodeID(i), net, eng, eng.Rand(), simhost.DefaultCosts())
	}
	g := &gsdStub{cfg: heartbeat.Config{
		Interval: tInterval, Grace: tGrace, ProbeTimeout: tProbeTO, NICs: 3,
		Peers: func(exclude types.NodeID) []types.NodeID { return []types.NodeID{2} },
	}}
	if _, err := hosts[0].Spawn(g); err != nil {
		t.Fatal(err)
	}
	for _, n := range []types.NodeID{1, 2} {
		if _, err := hosts[n].Spawn(watchd.New(watchd.Spec{Partition: 0, GSDNode: 0, Interval: tInterval, NICs: 3})); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(2500 * time.Millisecond)
	g.mon.Watch(1)
	eng.RunFor(3 * tInterval)

	net.Filter = func(m types.Message) bool {
		return !(m.From.Node == 0 && m.To.Node == 1 || m.From.Node == 1 && m.To.Node == 0)
	}
	eng.RunFor(5 * tInterval)
	if len(g.suspects) == 0 {
		t.Fatal("the cut path never raised suspicion")
	}
	for _, v := range g.verdicts {
		if v.Kind != types.FaultNIC || v.NIC != types.AnyNIC {
			t.Fatalf("relayed-alive node got verdict %+v", v)
		}
	}
	if len(g.verdicts) == 0 {
		t.Fatal("no network-fault verdict")
	}
	if st := g.mon.Stats(); st.IndirectAcks < 1 || st.FailVerdicts != 0 {
		t.Fatalf("stats = %+v, want indirect acks and no fail verdicts", st)
	}
	if g.mon.Status(1) == heartbeat.StatusDown {
		t.Fatal("node behind a cut path marked down")
	}
}

// TestCleanKillSuspectedAtFixedFloor: on a clean network the accrual
// window, primed with a dozen steady inter-arrivals, never stretches the
// deadline, so a dead node is suspected exactly Interval+Grace after its
// last heartbeat copy arrived.
func TestCleanKillSuspectedAtFixedFloor(t *testing.T) {
	eng, net, hosts, g, _ := rig(t)
	eng.RunFor(12 * tInterval)
	runUntilNextBeat(eng, net)
	hosts[1].PowerOff()
	eng.RunFor(2 * tInterval)
	if len(g.suspects) != 1 {
		t.Fatalf("suspects = %v", g.suspects)
	}
	if got := g.suspectTimes[0].Sub(g.lastBeat); got != tInterval+tGrace {
		t.Fatalf("suspected %v after the last beat, want the fixed floor %v", got, tInterval+tGrace)
	}
}
