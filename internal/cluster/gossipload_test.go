package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/gossip"
)

// TestGossipTrafficBounded fences what the gossip plane carries on a quiet
// 64-node cluster: federation views and bulletin delta sequences, nothing
// else. Digests name one version per delta source, so their mean size
// stays small, and a round only pushes updates when a peer is behind on
// one of those two streams. Both bounds are 25 % over the measured 198
// updates and 43.6 bytes per digest; a per-period summary riding the
// digests and updates breaks both.
func TestGossipTrafficBounded(t *testing.T) {
	const (
		window     = 20 * time.Second
		maxUpdates = 250
		maxDigestB = 55.0
	)
	c, err := cluster.Build(cluster.Spec{
		Partitions: 4, PartitionSize: 16, NICs: 3, Seed: 1, Params: config.FastParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.WarmUp()
	c.RunFor(window)
	count := func(kind, typ string) float64 { return c.Metrics.Counter("net." + kind + "." + typ).Value() }
	updates := count("msgs", gossip.MsgUpdates)
	digests, digestB := count("msgs", gossip.MsgDigest), count("bytes", gossip.MsgDigest)
	if digests == 0 {
		t.Fatal("no gossip digests sent")
	}
	perDigest := digestB / digests
	t.Logf("boot plus %v: %.0f %s, %.0f %s averaging %.1f B", window, updates, gossip.MsgUpdates,
		digests, gossip.MsgDigest, perDigest)
	if updates > maxUpdates {
		t.Errorf("%.0f %s, want at most %d", updates, gossip.MsgUpdates, maxUpdates)
	}
	if perDigest > maxDigestB {
		t.Errorf("%.1f B per %s, want at most %.0f", perDigest, gossip.MsgDigest, maxDigestB)
	}
}
