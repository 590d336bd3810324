package chaos

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/types"
)

// trace runs n datagrams through each of the given lanes in a fixed
// interleaving and records every verdict.
func trace(inj *Injector, lanes []laneKey, n int) []Action {
	var out []Action
	inj.Trace = func(a Action) { out = append(out, a) }
	for i := 0; i < n; i++ {
		for _, l := range lanes {
			inj.run(l, func() {})
		}
	}
	return out
}

// TestDeterministicSameSeed is the chaos contract: same seed + same
// scenario ⇒ same fault sequence, datagram for datagram.
func TestDeterministicSameSeed(t *testing.T) {
	lanes := []laneKey{
		{peer: 1, plane: 0, dir: DirOut},
		{peer: 2, plane: 0, dir: DirOut},
		{peer: 2, plane: 1, dir: DirIn},
		{peer: 3, plane: 1, dir: DirOut},
	}
	run := func() []Action {
		sc, err := Parse(ruleScript)
		if err != nil {
			t.Fatal(err)
		}
		inj := New(sc.Seed, clock.Real{})
		r := NewRunner(inj, 0, nil)
		for _, st := range sc.Resolve() {
			r.Apply(st)
		}
		return trace(inj, lanes, 200)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no decisions recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed+scenario diverged: run1 %d actions, run2 %d", len(a), len(b))
	}
	// The faults actually fired: a 0.3 drop rule over 200 datagrams per
	// out lane leaves dozens of drops in any plausible stream.
	verdicts := map[string]int{}
	for _, act := range a {
		verdicts[act.Verdict]++
	}
	for _, want := range []string{"drop", "dup", "delay"} {
		if verdicts[want] == 0 {
			t.Fatalf("verdict %q never fired: %v", want, verdicts)
		}
	}
}

// TestLaneIndependence: a lane's fault sequence does not depend on how
// much traffic the other lanes carried in between.
func TestLaneIndependence(t *testing.T) {
	lane := laneKey{peer: 5, plane: 0, dir: DirOut}
	other := laneKey{peer: 6, plane: 0, dir: DirOut}
	seq := func(interleave bool) []Action {
		inj := New(42, clock.Real{})
		inj.AddRule(Rule{Peer: AnyPeer, Plane: AnyPlane, Drop: 0.5})
		var out []Action
		inj.Trace = func(a Action) {
			if a.Peer == lane.peer {
				out = append(out, a)
			}
		}
		for i := 0; i < 100; i++ {
			if interleave {
				inj.run(other, func() {})
				inj.run(other, func() {})
			}
			inj.run(lane, func() {})
		}
		return out
	}
	if a, b := seq(false), seq(true); !reflect.DeepEqual(a, b) {
		t.Fatal("lane stream perturbed by other-lane traffic")
	}
}

func TestSeedChangesSequence(t *testing.T) {
	seq := func(seed int64) []Action {
		inj := New(seed, clock.Real{})
		inj.AddRule(Rule{Peer: AnyPeer, Plane: AnyPlane, Drop: 0.5})
		return trace(inj, []laneKey{{peer: 1, plane: 0, dir: DirOut}}, 100)
	}
	if reflect.DeepEqual(seq(1), seq(2)) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestPlaneDownAndHeal(t *testing.T) {
	inj := New(1, clock.Real{})
	delivered := 0
	count := func() { delivered++ }
	inj.SetPlaneDown(0, true)
	inj.run(laneKey{peer: 1, plane: 0, dir: DirOut}, count)
	inj.run(laneKey{peer: 1, plane: 1, dir: DirOut}, count)
	if delivered != 1 {
		t.Fatalf("plane-down leaked: %d deliveries, want 1 (plane 1 only)", delivered)
	}
	inj.Heal()
	inj.run(laneKey{peer: 1, plane: 0, dir: DirOut}, count)
	if delivered != 2 {
		t.Fatal("healed plane still dropping")
	}
	if c := inj.Counts(); c["plane-down"] != 1 {
		t.Fatalf("counts: %v", c)
	}
}

func TestPartitionBlocksOtherGroups(t *testing.T) {
	inj := New(1, clock.Real{})
	groups := [][]types.NodeID{{0, 1}, {2, 3}}
	inj.Partition(0, groups)
	delivered := 0
	count := func() { delivered++ }
	inj.run(laneKey{peer: 1, plane: 0, dir: DirOut}, count) // same group
	inj.run(laneKey{peer: 2, plane: 0, dir: DirIn}, count)  // other group
	inj.run(laneKey{peer: 3, plane: 1, dir: DirOut}, count) // other group
	inj.run(laneKey{peer: 9, plane: 0, dir: DirOut}, count) // unlisted
	if delivered != 2 {
		t.Fatalf("partition delivered %d, want 2 (peer 1 and unlisted peer 9)", delivered)
	}
}

func TestDelayPostponesDelivery(t *testing.T) {
	inj := New(1, clock.Real{})
	inj.AddRule(Rule{Peer: AnyPeer, Plane: AnyPlane, Delay: 30 * time.Millisecond})
	ch := make(chan time.Time, 1)
	start := time.Now()
	inj.run(laneKey{peer: 1, plane: 0, dir: DirIn}, func() { ch <- time.Now() })
	select {
	case at := <-ch:
		if d := at.Sub(start); d < 20*time.Millisecond {
			t.Fatalf("delivered after %v, want >= ~30ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delayed datagram never delivered")
	}
}

func TestParseScenario(t *testing.T) {
	sc, err := Parse(mixedScript)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 99 {
		t.Fatalf("seed = %d", sc.Seed)
	}
	steps := sc.Resolve()
	if len(steps) != 5 {
		t.Fatalf("steps: %d", len(steps))
	}
	// Resolve orders by time: the 500ms drop comes first.
	if steps[0].Op != "drop" || steps[0].Peer != 3 || steps[0].Dir != DirIn || steps[0].Prob != 0.25 {
		t.Fatalf("first step: %+v", steps[0])
	}
	if steps[1].Op != "nic-down" || steps[1].Plane != 0 {
		t.Fatalf("second step: %+v", steps[1])
	}
	if steps[2].Op != "partition" || len(steps[2].Groups) != 2 || steps[2].Groups[1][0] != 2 {
		t.Fatalf("partition step: %+v", steps[2])
	}
	if steps[4].Op != "kill" || steps[4].Node != 2 {
		t.Fatalf("kill step: %+v", steps[4])
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range garbageScripts {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted garbage", bad)
		}
	}
}

func TestRunnerKillTargetsSelfOnly(t *testing.T) {
	sc, err := Parse(killScript)
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan string, 2)
	inj := New(1, clock.Real{})
	r := NewRunner(inj, 3, func(svc string) { killed <- svc })
	r.Run(sc)
	defer r.Stop()
	got := map[string]bool{}
	for len(got) < 2 {
		select {
		case svc := <-killed:
			got[svc] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("kill steps fired for the named node: %v, want the node and its gsd", got)
		}
	}
	if !got[""] || !got["gsd"] {
		t.Fatalf("kills = %v, want the whole node and its gsd", got)
	}
	// A runner for a different node must not fire its kill hook, and only
	// the node a nic step names takes its plane down.
	other := New(1, clock.Real{})
	for _, st := range sc.Resolve() {
		NewRunner(other, 4, func(string) { t.Error("kill fired on wrong node") }).Apply(st)
	}
	other.Outbound()(1, 0, nil, func() { t.Error("node 4's plane 0 still delivers") })
	delivered := false
	inj.Outbound()(1, 0, nil, func() { delivered = true })
	if !delivered {
		t.Fatal("node 3 took its plane 0 down for a step naming node 4")
	}
}
