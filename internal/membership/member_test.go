package membership_test

import (
	"testing"
	"time"

	"repro/internal/heartbeat"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/types"
)

// memberProc hosts a membership.Member as a GSD-shaped process.
type memberProc struct {
	part     types.PartitionID
	view     *membership.View
	announce bool
	m        *membership.Member

	suspects  []types.PartitionID
	diagnosed []struct {
		part types.PartitionID
		kind types.FaultKind
	}
	takeovers []struct {
		part types.PartitionID
		kind types.FaultKind
	}
	joins   []types.PartitionID
	leaders []types.PartitionID
}

func (p *memberProc) Service() string { return types.SvcGSD }
func (p *memberProc) OnStop() {
	if p.m != nil {
		p.m.Stop()
	}
}
func (p *memberProc) Start(h *simhost.Handle) {
	cfg := heartbeat.Config{
		Interval: time.Second, Grace: 100 * time.Millisecond,
		ProbeTimeout: 300 * time.Millisecond, NICs: 3, Service: types.SvcGSD,
	}
	p.m = membership.NewMember(h, cfg, p.part, p.view, membership.Callbacks{
		OnSuspect: func(part types.PartitionID, node types.NodeID) {
			p.suspects = append(p.suspects, part)
		},
		OnDiagnosed: func(part types.PartitionID, node types.NodeID, kind types.FaultKind) {
			p.diagnosed = append(p.diagnosed, struct {
				part types.PartitionID
				kind types.FaultKind
			}{part, kind})
		},
		OnTakeover: func(part types.PartitionID, failed membership.MemberInfo, kind types.FaultKind) {
			p.takeovers = append(p.takeovers, struct {
				part types.PartitionID
				kind types.FaultKind
			}{part, kind})
		},
		OnJoin: func(part types.PartitionID, node types.NodeID) {
			p.joins = append(p.joins, part)
		},
		OnLeaderChange: func(leader types.PartitionID) {
			p.leaders = append(p.leaders, leader)
		},
	})
	p.m.Start(p.announce)
}
func (p *memberProc) Receive(msg types.Message) { p.m.HandleMessage(msg) }

func placement() map[types.PartitionID]types.NodeID {
	return map[types.PartitionID]types.NodeID{0: 0, 1: 1, 2: 2}
}

func ringRig(t *testing.T) (*sim.Engine, []*simhost.Host, []*memberProc) {
	t.Helper()
	eng := sim.New(3)
	net := simnet.New(eng, eng.Rand(), 3, simnet.DefaultParams(), metrics.NewRegistry())
	hosts := make([]*simhost.Host, 3)
	procs := make([]*memberProc, 3)
	for i := 0; i < 3; i++ {
		hosts[i] = simhost.New(types.NodeID(i), net, eng, eng.Rand(), simhost.DefaultCosts())
		procs[i] = &memberProc{part: types.PartitionID(i), view: membership.NewView(placement())}
		if _, err := hosts[i].Spawn(procs[i]); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(3 * time.Second) // GSD exec latency 2s
	return eng, hosts, procs
}

func TestRingSteadyState(t *testing.T) {
	eng, _, procs := ringRig(t)
	eng.RunFor(10 * time.Second)
	for i, p := range procs {
		if len(p.suspects) != 0 {
			t.Fatalf("member %d raised suspects in steady state: %v", i, p.suspects)
		}
		if !p.m.View().Alive(0) || !p.m.View().Alive(1) || !p.m.View().Alive(2) {
			t.Fatalf("member %d lost liveness in steady state: %v", i, p.m.View())
		}
	}
	if !procs[0].m.IsLeader() || procs[1].m.IsLeader() {
		t.Fatal("leadership not at member 0")
	}
}

func TestMemberProcessFaultTakeover(t *testing.T) {
	eng, hosts, procs := ringRig(t)
	eng.RunFor(5 * time.Second)
	if err := hosts[1].Kill(types.SvcGSD); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(4 * time.Second)
	// Member 2 monitors its ring predecessor (member 1) and must detect,
	// diagnose a process fault, and take over.
	if len(procs[2].suspects) != 1 || procs[2].suspects[0] != 1 {
		t.Fatalf("suspects at successor: %v", procs[2].suspects)
	}
	if len(procs[2].diagnosed) != 1 || procs[2].diagnosed[0].kind != types.FaultProcess {
		t.Fatalf("diagnosis: %+v", procs[2].diagnosed)
	}
	if len(procs[2].takeovers) != 1 || procs[2].takeovers[0].part != 1 {
		t.Fatalf("takeover: %+v", procs[2].takeovers)
	}
	// Everyone alive converges on the dead slot; princess role moves off
	// the dead member.
	for _, i := range []int{0, 2} {
		if procs[i].m.View().Alive(1) {
			t.Fatalf("member %d still believes 1 alive", i)
		}
	}
	if v := procs[0].m.View(); v.Princess != 2 {
		t.Fatalf("princess after member-1 death: %v", v.Princess)
	}
}

func TestLeaderNodeFaultPrincessTakesOver(t *testing.T) {
	eng, hosts, procs := ringRig(t)
	eng.RunFor(5 * time.Second)
	hosts[0].PowerOff() // the Leader's node dies
	eng.RunFor(4 * time.Second)
	if len(procs[1].diagnosed) != 1 || procs[1].diagnosed[0].kind != types.FaultNode {
		t.Fatalf("diagnosis at successor: %+v", procs[1].diagnosed)
	}
	for _, i := range []int{1, 2} {
		v := procs[i].m.View()
		if v.Leader != 1 || v.Princess != 2 {
			t.Fatalf("member %d roles after leader death: L=%v P=%v", i, v.Leader, v.Princess)
		}
	}
	if !procs[1].m.IsLeader() {
		t.Fatal("princess did not take leadership")
	}
	if len(procs[1].leaders) == 0 || procs[1].leaders[len(procs[1].leaders)-1] != 1 {
		t.Fatalf("leader-change callbacks: %v", procs[1].leaders)
	}
}

func TestRejoinAfterRestart(t *testing.T) {
	eng, hosts, procs := ringRig(t)
	eng.RunFor(5 * time.Second)
	if err := hosts[1].Kill(types.SvcGSD); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(4 * time.Second)
	// Restart member 1 with the successor's current view (what a real
	// takeover passes in the spawn spec) and announce.
	rejoined := &memberProc{part: 1, view: procs[2].m.View().Clone(), announce: true}
	if _, err := hosts[1].Spawn(rejoined); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(4 * time.Second)
	for _, i := range []int{0, 2} {
		if !procs[i].m.View().Alive(1) {
			t.Fatalf("member %d did not see the rejoin", i)
		}
	}
	if len(procs[2].joins) != 1 || procs[2].joins[0] != 1 {
		t.Fatalf("join callbacks at successor: %v", procs[2].joins)
	}
	// The ring must be monitored again: kill member 2 and expect member 0
	// to detect (its predecessor is 2).
	if err := hosts[2].Kill(types.SvcGSD); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(4 * time.Second)
	if len(procs[0].takeovers) != 1 || procs[0].takeovers[0].part != 2 {
		t.Fatalf("takeover after rejoin: %+v", procs[0].takeovers)
	}
	if !rejoined.m.View().Alive(1) || rejoined.m.View().Alive(2) {
		t.Fatalf("rejoined member's view wrong: %v", rejoined.m.View())
	}
}

func TestTwoSurvivorsKeepMonitoringEachOther(t *testing.T) {
	eng, hosts, procs := ringRig(t)
	eng.RunFor(5 * time.Second)
	hosts[0].PowerOff()
	eng.RunFor(4 * time.Second)
	// Now 1 and 2 monitor each other. Kill 2; 1 must detect.
	if err := hosts[2].Kill(types.SvcGSD); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(4 * time.Second)
	var parts []types.PartitionID
	for _, to := range procs[1].takeovers {
		parts = append(parts, to.part)
	}
	// Member 1 was the detecting successor for both failures: first the
	// leader's node death, then member 2's process death.
	if len(parts) != 2 || parts[0] != 0 || parts[1] != 2 {
		t.Fatalf("survivor takeovers: %v", parts)
	}
	v := procs[1].m.View()
	if v.AliveCount() != 1 || v.Leader != 1 || v.Princess != 1 {
		t.Fatalf("single survivor view: %v", v)
	}
}

// TestNewWatcherClearsQuarantine pins who owns a slot's flap quarantine:
// the slot's watcher. When the watcher dies, the member that takes up the
// watch has counted no flaps of the slot, so it clears the flag in every
// live view.
func TestNewWatcherClearsQuarantine(t *testing.T) {
	eng, hosts, procs := ringRig(t)
	eng.RunFor(5 * time.Second)
	procs[2].m.SetQuarantined(1, true) // member 2 watches slot 1
	eng.RunFor(time.Second)
	for i, p := range procs {
		if !p.m.View().Quarantined(1) {
			t.Fatalf("member %d did not adopt slot 1's quarantine", i)
		}
	}
	if err := hosts[2].Kill(types.SvcGSD); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(4 * time.Second)
	// Member 0 took over slot 2 and now watches slot 1.
	for _, i := range []int{0, 1} {
		if v := procs[i].m.View(); v.Alive(2) || v.Quarantined(1) {
			t.Fatalf("member %d after the watcher's death: %v, slot 1 quarantined %v", i, v, v.Quarantined(1))
		}
	}
}
