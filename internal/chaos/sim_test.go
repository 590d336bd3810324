package chaos_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/gossip"
	"repro/internal/types"
)

// TestPartitionHealConverges256 is the gossip plane's scale gate: a
// 256-node simulated cluster (16 partitions of 16) is split down the
// middle by a scenario-DSL partition step and healed five seconds later.
// After the heal the epidemic plane must reconverge — every partition
// server's gossip instance agrees on the federation view version, holds
// bulletin delta sequences from sources on both sides of the old cut
// within a bounded spread, and never contacted more than Fanout peers in
// any round.
func TestPartitionHealConverges256(t *testing.T) {
	const parts, size = 16, 16
	spec := cluster.Spec{
		Partitions: parts, PartitionSize: size, NICs: 3, Seed: 1,
		Params: config.FastParams(),
	}
	c, err := cluster.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.WarmUp()
	c.RunFor(5 * time.Second) // gossip rounds running, deltas flowing

	// The scenario text is generated, not hand-written: 256 node IDs per
	// group is exactly the scale the DSL's parser must keep handling.
	group := func(lo, hi int) string {
		ids := make([]string, 0, hi-lo)
		for n := lo; n < hi; n++ {
			ids = append(ids, fmt.Sprint(n))
		}
		return strings.Join(ids, ",")
	}
	text := fmt.Sprintf("seed 1\nat 1s partition %s|%s\nat 6s heal\n",
		group(0, parts*size/2), group(parts*size/2, parts*size))
	sc, err := chaos.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	c.Chaos().Run(sc)
	c.RunFor(40 * time.Second) // cut at +1s, heal at +6s, then settle

	// One gossip instance per partition, wherever its GSD put it.
	engines := make(map[types.PartitionID]*gossip.Engine, parts)
	for _, p := range c.Topo.Partitions {
		for _, m := range p.Members {
			if svc, ok := c.Hosts[m].Proc(types.SvcGossip).(*gossip.Service); ok && svc.Engine() != nil {
				engines[p.ID] = svc.Engine()
				break
			}
		}
	}
	if len(engines) != parts {
		t.Fatalf("found %d gossip instances, want %d", len(engines), parts)
	}

	// Federation view version must have reconverged cluster-wide.
	versions := make(map[uint64][]types.PartitionID)
	for p, e := range engines {
		versions[e.View().Version] = append(versions[e.View().Version], p)
	}
	if len(versions) != 1 {
		t.Fatalf("federation view versions diverged after heal: %v", versions)
	}

	// Bulletin deltas must flow across the healed cut: every instance
	// tracks sources from both halves, and for each source the per-peer
	// sequence spread stays within propagation lag (a few flush windows),
	// not a partition's worth of history.
	const maxSpread = 30
	for src := types.PartitionID(0); src < parts; src++ {
		min, max := ^uint64(0), uint64(0)
		for _, e := range engines {
			s := e.SeqKnown(src)
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max == 0 {
			t.Fatalf("no peer knows any delta from source %v", src)
		}
		if min == 0 || max-min > maxSpread {
			t.Fatalf("source %v sequence spread %d..%d exceeds %d", src, min, max, maxSpread)
		}
	}

	// The fanout bound held throughout, partition and heal included.
	for p, e := range engines {
		st := e.Stats()
		if st.MaxFanout > gossip.DefaultFanout {
			t.Fatalf("partition %v contacted %d peers in one round, fanout %d",
				p, st.MaxFanout, gossip.DefaultFanout)
		}
		if st.Rounds == 0 {
			t.Fatalf("partition %v ran no gossip rounds", p)
		}
	}
}

// TestSimAppliesEveryOp replays testdata/every_op.chaos — every op of the
// DSL in its own window — on the Small cluster and sees each step take
// effect in what the injectors decide and the network delivers.
func TestSimAppliesEveryOp(t *testing.T) {
	raw, err := os.ReadFile("testdata/every_op.chaos")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := chaos.Parse(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Build(cluster.Small())
	if err != nil {
		t.Fatal(err)
	}
	c.WarmUp()
	t0 := c.Engine.Now()
	since := func(at time.Time) time.Duration { return at.Sub(t0) }

	// verdicts[op][second] counts the injectors' rule verdicts by the
	// second of the script they fell in.
	verdicts := map[string]map[int]int{}
	ap := c.Chaos()
	ap.Trace = func(_ types.NodeID, act chaos.Action) {
		v := act.Verdict + fmt.Sprint(act.Plane)
		if verdicts[v] == nil {
			verdicts[v] = map[int]int{}
		}
		verdicts[v][int(since(c.Engine.Now())/time.Second)]++
	}
	type delivery struct {
		sent, lat time.Duration
		from, to  types.NodeID
		plane     int
	}
	var got []delivery
	c.Net.Trace = func(m types.Message) {
		got = append(got, delivery{since(m.Sent), c.Engine.Now().Sub(m.Sent), m.From.Node, m.To.Node, m.NIC})
	}
	ap.Run(sc)
	c.RunFor(10*time.Second + time.Millisecond)
	if h := c.Host(6); !h.Up() || h.Running(types.SvcWD) {
		t.Errorf("kill node=6 svc=wd: node up %v, wd running %v; want the node up without its wd", h.Up(), h.Running(types.SvcWD))
	}
	if c.Host(7).Up() {
		t.Error("kill node=7 left the node powered")
	}
	c.RunFor(5 * time.Second)
	if !c.Host(6).Running(types.SvcWD) {
		t.Error("node 6's wd was not restarted after its kill")
	}
	// A kill naming no node of the cluster is nobody's to act on.
	ap.Apply(chaos.Step{Op: "kill", Node: 32})
	ap.Apply(chaos.Step{Op: "kill", Node: 32, Svc: types.SvcWD})

	// Rule verdicts fall only in their own windows.
	only := func(v string, seconds ...int) {
		t.Helper()
		want := map[int]bool{}
		for _, s := range seconds {
			want[s] = true
		}
		for s, n := range verdicts[v] {
			if !want[s] {
				t.Errorf("%d %s verdicts in second %d, want them only in %v", n, v, s, seconds)
			}
		}
		if len(verdicts[v]) == 0 {
			t.Errorf("no %s verdicts, want some in %v", v, seconds)
		}
	}
	only("drop0", 1)
	only("dup0", 2)
	only("delay0", 3, 4, 5)
	only("delay2", 8)

	// sent reports whether plane-p deliveries matching keep were sent in
	// [from, to) of the script, and whether all of them took lat.
	type window struct{ any, all bool }
	sent := func(from, to time.Duration, p int, keep func(delivery) bool, lat func(time.Duration) bool) window {
		w := window{all: true}
		for _, d := range got {
			if d.plane == p && d.sent >= from && d.sent < to && (keep == nil || keep(d)) {
				w.any = true
				w.all = w.all && (lat == nil || lat(d.lat))
			}
		}
		return w
	}
	ms := time.Millisecond
	atLeast := func(min time.Duration) func(time.Duration) bool {
		return func(l time.Duration) bool { return l >= min }
	}
	below := func(max time.Duration) func(time.Duration) bool { return func(l time.Duration) bool { return l < max } }
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	touches := func(n types.NodeID) func(delivery) bool {
		return func(d delivery) bool { return d.from == n || d.to == n }
	}
	crosses := func(d delivery) bool { return d.from < 16 != (d.to < 16) }
	for _, tc := range []struct {
		what string
		w    window
		want window
	}{
		{"plane 0 before any rule: fabric latency", sent(0, sec(1), 0, nil, below(ms)), window{true, true}},
		{"delay d=40ms, both directions", sent(sec(3), sec(3.9), 0, nil, atLeast(80*ms)), window{true, true}},
		{"slow: early in the ramp", sent(sec(4), sec(4.4), 0, nil, below(100*ms)), window{true, true}},
		{"slow: after the ramp", sent(sec(5), sec(5.9), 0, nil, atLeast(200*ms)), window{true, true}},
		{"clear", sent(sec(6.5), sec(8), 0, nil, below(ms)), window{true, true}},
		{"plane 1 before nic-down", sent(sec(5), sec(6), 1, nil, nil), window{true, true}},
		{"nic-down plane=1", sent(sec(6.01), sec(7), 1, nil, nil), window{false, true}},
		{"nic-up plane=1", sent(sec(7.01), sec(8), 1, nil, nil), window{true, true}},
		{"nic-down plane=2 node=5", sent(sec(7.01), sec(8), 2, touches(5), nil), window{false, true}},
		{"nic-down plane=2 node=5: other nodes", sent(sec(7.01), sec(8), 2, nil, nil), window{true, true}},
		{"nic-up plane=2 node=5", sent(sec(8.01), sec(10), 2, touches(5), nil), window{true, true}},
		{"nic-down plane=1 node=3", sent(sec(8.01), sec(9), 1, touches(3), nil), window{false, true}},
		{"heal: node 3's plane 1 back", sent(sec(9.01), sec(10), 1, touches(3), nil), window{true, true}},
		{"partition", sent(sec(8.01), sec(9), 0, crosses, nil), window{false, true}},
		{"heal: cut lifted", sent(sec(9.01), sec(10), 0, crosses, nil), window{true, true}},
		{"delay d=30ms on plane 2", sent(sec(8.01), sec(8.9), 2, nil, atLeast(60*ms)), window{true, true}},
		{"heal: rules cleared", sent(sec(9.01), sec(10), 2, nil, below(ms)), window{true, true}},
	} {
		if tc.w != tc.want {
			t.Errorf("%s: deliveries seen %v, all within bounds %v; want %v, %v", tc.what, tc.w.any, tc.w.all, tc.want.any, tc.want.all)
		}
	}
}
