package chaos_test

import (
	"fmt"
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
	ap := chaos.NewSimApplier(c.Engine, c.Net, nil)
	ap.Run(sc)
	c.RunFor(40 * time.Second) // cut at +1s, heal at +6s, then settle
	if skipped := ap.Skipped(); len(skipped) != 0 {
		t.Fatalf("simulator skipped steps: %v", skipped)
	}

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
