package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/gsd"
	"repro/internal/heartbeat"
	"repro/internal/types"
)

// maxMapVersion is the freshest shard map version any bulletin instance
// runs on — the churn detector for the refutation regression.
func maxMapVersion(c *Cluster) uint64 {
	var v uint64
	for _, h := range c.Hosts {
		if db, ok := h.Proc(types.SvcDB).(*bulletin.Service); ok {
			if mv := db.Stats().MapVersion; mv > v {
				v = mv
			}
		}
	}
	return v
}

func partitionDaemon(t *testing.T, c *Cluster, node types.NodeID) *gsd.Daemon {
	t.Helper()
	d, ok := c.Host(node).Proc(types.SvcGSD).(*gsd.Daemon)
	if !ok {
		t.Fatalf("node %d hosts no GSD", node)
	}
	return d
}

// TestRefutationWithoutShardChurn is the regression for the suspicion
// lifecycle's silent cancel: a falsely-suspected node refutes by bumping
// its incarnation, and because nothing was ever marked down, the shard
// map version must not move — no data-plane churn for a network hiccup.
//
// The filter drops the victim's ordinary heartbeats (incarnation 0) but
// passes refutation beats (bumped incarnation), so the suspicion is
// guaranteed to be answered by the refutation path and not by the
// diagnosis probes.
func TestRefutationWithoutShardChurn(t *testing.T) {
	c := smallCluster(t)
	c.RunFor(10 * time.Second)

	victim := types.NodeID(5) // partition 0 computing node
	server := c.Topo.Partitions[0].Server
	d := partitionDaemon(t, c, server)
	st0 := d.Monitor().Stats()
	mapBefore := maxMapVersion(c)

	c.Net.Filter = func(m types.Message, deliver func()) {
		hb, ok := m.Payload.(heartbeat.Heartbeat)
		if m.Type != heartbeat.MsgHeartbeat || m.From.Node != victim || ok && hb.Inc > 0 {
			deliver() // of the victim's beats only refutations get through
		}
	}
	c.RunFor(3 * time.Second)
	c.Net.Filter = nil
	c.RunFor(3 * time.Second)

	st1 := d.Monitor().Stats()
	if st1.Suspects <= st0.Suspects {
		t.Fatal("victim was never suspected — the filter did not bite")
	}
	if st1.Refutations <= st0.Refutations {
		t.Fatalf("suspicion was not refuted: %+v -> %+v", st0, st1)
	}
	if st1.FailVerdicts != st0.FailVerdicts {
		t.Fatalf("refuted suspicion still produced a fail verdict: %+v -> %+v", st0, st1)
	}
	if got := d.Monitor().Status(victim); got != heartbeat.StatusHealthy {
		t.Fatalf("victim status = %v, want healthy", got)
	}
	if inc := d.Monitor().Incarnation(victim); inc == 0 {
		t.Fatal("victim incarnation did not rise through the refutation")
	}
	if after := maxMapVersion(c); after != mapBefore {
		t.Fatalf("shard map version churned %d -> %d on a refuted suspicion", mapBefore, after)
	}
}

// detectorTotals sums the partition monitor stats and takeover counts of
// every GSD instance in the cluster.
func detectorTotals(c *Cluster) (st heartbeat.Stats, takeovers uint64) {
	for _, h := range c.Hosts {
		if d, ok := h.Proc(types.SvcGSD).(*gsd.Daemon); ok {
			st = addStats(st, d.Monitor().Stats())
			takeovers += d.Takeovers()
		}
	}
	return st, takeovers
}

// ringTotals sums the ring monitor stats of every GSD instance.
func ringTotals(c *Cluster) (st heartbeat.Stats) {
	for _, h := range c.Hosts {
		if d, ok := h.Proc(types.SvcGSD).(*gsd.Daemon); ok {
			st = addStats(st, d.Member().Stats())
		}
	}
	return st
}

func addStats(a, b heartbeat.Stats) heartbeat.Stats {
	a.Suspects += b.Suspects
	a.Refutations += b.Refutations
	a.FailVerdicts += b.FailVerdicts
	return a
}

// TestNoFalseVerdictsUnderLivenessLoss holds the suspicion lifecycle to
// its claim at the paper's testbed size and at 256 nodes: losing 10 or
// 20 % of the liveness plane (heartbeats, suspect notices, indirect
// probes and their acks) raises suspicions that are all refuted, never a
// node-fail verdict or a GSD takeover, while a real power-off is still
// diagnosed within two heartbeat intervals.
func TestNoFalseVerdictsUnderLivenessLoss(t *testing.T) {
	for _, tc := range []struct{ parts, size, lossPct int }{
		{8, 17, 10}, {8, 17, 20}, {16, 16, 10}, {16, 16, 20},
	} {
		t.Run(fmt.Sprintf("%dx%d/loss%d", tc.parts, tc.size, tc.lossPct), func(t *testing.T) {
			params := config.FastParams()
			c, err := Build(Spec{Partitions: tc.parts, PartitionSize: tc.size, NICs: 3, Seed: 1, Params: params})
			if err != nil {
				t.Fatal(err)
			}
			c.WarmUp()
			c.RunFor(5 * time.Second)

			// Loss starts after boot: the claim is about steady state.
			p := float64(tc.lossPct) / 100
			rng := rand.New(rand.NewSource(int64(tc.lossPct)*7919 + int64(tc.parts)))
			c.Net.Filter = func(m types.Message, deliver func()) {
				switch m.Type {
				case heartbeat.MsgHeartbeat, heartbeat.MsgSuspect,
					heartbeat.MsgIndirectProbe, heartbeat.MsgIndirectAck:
					if rng.Float64() < p {
						return
					}
				}
				deliver()
			}
			// Let the accrual windows adapt to the lossy arrivals first.
			c.RunFor(10 * time.Second)

			st0, tk0 := detectorTotals(c)
			c.RunFor(20 * time.Second)
			st1, tk1 := detectorTotals(c)
			suspects, refuted := st1.Suspects-st0.Suspects, st1.Refutations-st0.Refutations
			if fails := st1.FailVerdicts - st0.FailVerdicts; fails != 0 {
				t.Fatalf("%d false fail verdicts with nothing failed", fails)
			}
			if tk := tk1 - tk0; tk != 0 {
				t.Fatalf("%d GSD takeovers with nothing failed", tk)
			}
			if refuted != suspects {
				t.Fatalf("%d suspicions, %d refuted", suspects, refuted)
			}
			if tc.lossPct >= 20 && suspects == 0 {
				t.Fatal("no suspicions at 20% loss — the filter did not bite")
			}

			// A real failure is still diagnosed promptly through the loss.
			part := c.Topo.Partitions[0]
			victim := part.Members[len(part.Members)-1] // a computing node
			d := partitionDaemon(t, c, part.Server)
			c.Host(victim).PowerOff()
			deadline := c.Engine.Elapsed() + 2*params.HeartbeatInterval
			for d.Monitor().Status(victim) != heartbeat.StatusDown {
				if c.Engine.Elapsed() >= deadline {
					t.Fatalf("node %d power-off not diagnosed within %v", victim, 2*params.HeartbeatInterval)
				}
				c.RunFor(10 * time.Millisecond)
			}
		})
	}
}

// TestFencedStaleGSDStandsDown is the regression for fencing epochs: a
// GSD primary whose partition has moved to a higher epoch must stand down
// deterministically when fenced — kill its own process rather than race
// the replacement — while an equal-or-lower fence is ignored.
func TestFencedStaleGSDStandsDown(t *testing.T) {
	c := smallCluster(t)
	c.RunFor(5 * time.Second)

	part := c.Topo.Partitions[3]
	host := c.Host(part.Server)
	d := partitionDaemon(t, c, part.Server)
	epoch := d.Epoch()
	if epoch == 0 {
		t.Fatal("running GSD reports epoch 0")
	}
	pid := host.PID(types.SvcGSD)
	fence := func(e uint64) {
		_ = c.Net.Send(types.Message{
			From: types.Addr{Node: part.Members[2], Service: types.SvcWD},
			To:   types.Addr{Node: part.Server, Service: types.SvcGSD},
			NIC:  0, Type: heartbeat.MsgFenced,
			Payload: heartbeat.Fenced{Partition: part.ID, Node: part.Members[2], Epoch: e},
		})
	}

	// An equal-epoch fence carries no new information: ignored.
	fence(epoch)
	c.RunFor(time.Second)
	if !host.Running(types.SvcGSD) || host.PID(types.SvcGSD) != pid {
		t.Fatal("equal-epoch fence killed the legitimate primary")
	}

	// A higher-epoch fence: the stale primary must stand down.
	fence(epoch + 2)
	c.RunFor(2 * time.Second)
	if host.Running(types.SvcGSD) && host.PID(types.SvcGSD) == pid {
		t.Fatal("fenced stale primary did not stand down")
	}

	// The partition recovers: a replacement GSD comes up at a higher
	// epoch (the takeover's view-version bump outbids the old primary).
	deadline := c.Engine.Elapsed() + 60*time.Second
	for c.Engine.Elapsed() < deadline {
		c.RunFor(500 * time.Millisecond)
		for _, m := range part.Members {
			if nd, ok := c.Host(m).Proc(types.SvcGSD).(*gsd.Daemon); ok {
				if nd.Epoch() > epoch {
					return
				}
			}
		}
	}
	t.Fatalf("no replacement GSD above epoch %d within 60s", epoch)
}

// TestDetectSoakScheduleInSim replays scripts/detect_soak.sh's chaos
// schedule — 20 % outbound loss on plane 0, plane 1 ramping to a 120 ms
// one-way delay — on the soak's shape (2 partitions of 2 nodes, 2
// planes, fast preset) for its 60 s soak, under ten cluster seeds. The
// rules must bite on their planes, and no seed may give a node-fail
// verdict (from a partition or a ring monitor) or take over a GSD:
// nothing fails. simnet has no wire retransmit, so every dropped datagram
// is lost for good: a harsher fabric than the real soak's.
func TestDetectSoakScheduleInSim(t *testing.T) {
	raw, err := os.ReadFile("../../scripts/detect_soak.sh")
	if err != nil {
		t.Fatal(err)
	}
	_, text, _ := strings.Cut(string(raw), "<<'EOF'\n")
	text, _, ok := strings.Cut(text, "\nEOF\n")
	if !ok {
		t.Fatal("no chaos heredoc in scripts/detect_soak.sh")
	}
	sc, err := chaos.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		c, err := Build(Spec{Partitions: 2, PartitionSize: 2, NICs: 2, Seed: seed, Params: config.FastParams()})
		if err != nil {
			t.Fatal(err)
		}
		c.WarmUp()
		verdicts := map[string]int{}
		ap := c.Chaos()
		ap.Trace = func(_ types.NodeID, act chaos.Action) { verdicts[fmt.Sprint(act.Verdict, act.Plane)]++ }
		ap.Run(sc)
		c.RunFor(62 * time.Second)
		if verdicts["drop0"] == 0 || verdicts["delay1"] == 0 {
			t.Fatalf("seed %d: rules did not bite: %v", seed, verdicts)
		}
		st, takeovers := detectorTotals(c)
		ring := ringTotals(c)
		t.Logf("seed %d: %d plane-0 drops, %d plane-1 delays; partitions: %d suspicions, %d refuted, %d fail verdicts; ring: %d suspicions, %d refuted, %d fail verdicts; %d takeovers",
			seed, verdicts["drop0"], verdicts["delay1"], st.Suspects, st.Refutations, st.FailVerdicts,
			ring.Suspects, ring.Refutations, ring.FailVerdicts, takeovers)
		if fails := st.FailVerdicts + ring.FailVerdicts; fails != 0 || takeovers != 0 {
			t.Errorf("seed %d: %d false node-fail verdicts, %d GSD takeovers with nothing failed",
				seed, fails, takeovers)
		}
	}
}
