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
)

// reorderRig hosts a monitor and no real WD: the test itself is the beat source, so it can craft duplicated
// and reordered heartbeat streams the network would never admit to.
func reorderRig(t *testing.T) (*sim.Engine, *simnet.Network, *gsdStub) {
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
	_ = hosts[1] // stays up so its agent answers diagnosis probes
	eng.RunFor(2500 * time.Millisecond)
	g.mon.Watch(1)
	return eng, net, g
}

// TestReorderedAndDuplicatedHeartbeats drives the sibling-check path with
// a hostile but live heartbeat stream: every beat duplicated on one NIC,
// one NIC receiving only the previous tick's stale copy (heavy reorder on
// that lane). The monitor must hold both node- and NIC-level silence —
// and must still flag a genuinely dead NIC, and still detect genuine
// silence within the fixed deadline, proving the chaos neither
// false-alarms nor desensitises detection.
func TestReorderedAndDuplicatedHeartbeats(t *testing.T) {
	eng, net, g := reorderRig(t)
	boot := time.Unix(1000, 0)
	beat := func(seq uint64, nic int) {
		_ = net.Send(types.Message{
			From: types.Addr{Node: 1, Service: types.SvcWD},
			To:   types.Addr{Node: 0, Service: types.SvcGSD},
			NIC:  nic, Type: heartbeat.MsgHeartbeat,
			Payload: heartbeat.Heartbeat{Node: 1, Seq: seq, Interval: tInterval, Boot: boot},
		})
	}

	// Phase 1: six ticks of reorder/dup chaos. NIC 0 gets the current
	// beat twice, NIC 2 once, NIC 1 only ever the previous tick's stale
	// copy — a lane that reorders across a full interval.
	for seq := uint64(1); seq <= 6; seq++ {
		beat(seq, 2)
		beat(seq, 0)
		beat(seq, 0) // duplicate
		if seq > 1 {
			beat(seq-1, 1) // stale reordered copy
		}
		eng.RunFor(tInterval)
	}
	if len(g.suspects) != 0 {
		t.Fatalf("reordered/duplicated beats raised node suspicion: %v", g.suspects)
	}
	if len(g.nicSuspects) != 0 {
		t.Fatalf("reordered/duplicated beats raised NIC suspicion: %v", g.nicSuspects)
	}
	if len(g.verdicts) != 0 {
		t.Fatalf("reordered/duplicated beats produced verdicts: %+v", g.verdicts)
	}
	if got := g.mon.Status(1); got != heartbeat.StatusHealthy {
		t.Fatalf("status = %v, want healthy", got)
	}

	// Phase 2: NIC 2 really dies. The same sibling check that stayed
	// quiet through the chaos must flag exactly that interface.
	for seq := uint64(7); seq <= 9; seq++ {
		beat(seq, 0)
		beat(seq, 1)
		eng.RunFor(tInterval)
	}
	if len(g.suspects) != 0 {
		t.Fatalf("NIC death raised node-level suspicion: %v", g.suspects)
	}
	foundNIC2 := false
	for _, ns := range g.nicSuspects {
		if ns == [2]int{1, 2} {
			foundNIC2 = true
		} else {
			t.Fatalf("wrong NIC suspected: %v", ns)
		}
	}
	if !foundNIC2 {
		t.Fatal("dead NIC 2 never suspected")
	}
	nicVerdicts := 0
	for _, v := range g.verdicts {
		if v.Kind != types.FaultNIC || v.NIC != 2 {
			t.Fatalf("unexpected verdict: %+v", v)
		}
		nicVerdicts++
	}
	if nicVerdicts != 1 {
		t.Fatalf("NIC verdicts = %d, want 1", nicVerdicts)
	}

	// Phase 3: total silence. The duplicates must not have poisoned the
	// accrual window: detection still fires within well under two
	// intervals of the last beat.
	eng.RunFor(2200 * time.Millisecond)
	if len(g.suspects) != 1 {
		t.Fatalf("silence after chaos: suspects = %v, want node 1 once", g.suspects)
	}
	for _, v := range g.verdicts[nicVerdicts:] {
		if v.Kind == types.FaultNode {
			t.Fatalf("live node (agent answering) misdiagnosed as node failure: %+v", v)
		}
	}
}

// TestAnyNICBeatsCarryNoNICEvidence pins the ring's use of the monitor:
// beats handed in as types.AnyNIC (sent on whichever interface the
// transport picked) keep the node healthy but neither fail nor recover an
// interface, however stale the per-interface receipt times grow; silence
// is still detected at the fixed deadline.
func TestAnyNICBeatsCarryNoNICEvidence(t *testing.T) {
	eng, _, g := reorderRig(t)
	boot := time.Unix(1000, 0)
	for seq := uint64(1); seq <= 10; seq++ {
		g.mon.HandleHeartbeat(heartbeat.Heartbeat{Node: 1, Seq: seq, Interval: tInterval, Boot: boot}, types.AnyNIC)
		eng.RunFor(tInterval)
	}
	if len(g.suspects) != 0 || len(g.nicSuspects) != 0 || len(g.verdicts) != 0 {
		t.Fatalf("AnyNIC beats raised suspects %v, NIC suspects %v, verdicts %v",
			g.suspects, g.nicSuspects, g.verdicts)
	}
	for nic := 0; nic < 3; nic++ {
		if g.mon.NICDown(1, nic) {
			t.Fatalf("NIC %d marked down by AnyNIC beats", nic)
		}
	}
	if g.mon.Status(1) != heartbeat.StatusHealthy {
		t.Fatalf("status %v after steady AnyNIC beats", g.mon.Status(1))
	}
	eng.RunFor(tInterval + tGrace)
	if len(g.suspects) != 1 {
		t.Fatalf("silence after AnyNIC beats: suspects %v, want one", g.suspects)
	}
}
