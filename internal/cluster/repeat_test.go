package cluster

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/types"
)

// simTraceHash builds the Small cluster, replays a server-node kill and a
// partition/heal through the scenario DSL, and hashes the envelope of
// every delivered message in delivery order.
func simTraceHash(t *testing.T) (sum uint64, delivered int) {
	t.Helper()
	c, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	c.Net.Trace = func(msg types.Message) {
		fmt.Fprintf(h, "%d %d %v %v %d %s\n", c.Engine.Elapsed(), msg.Sent.UnixNano(),
			msg.From, msg.To, msg.NIC, msg.Type)
		delivered++
	}
	c.WarmUp()

	// Partition 1's server dies at 10 s and two compute nodes of partition
	// 2 at 12 s; at 25 s partitions 2-3 are cut off from 0-1 for ten seconds.
	size := c.Spec.PartitionSize
	computeA, computeB := types.NodeID(2*size+3), types.NodeID(2*size+5)
	group := func(lo, hi int) string {
		ids := make([]string, 0, hi-lo)
		for n := lo; n < hi; n++ {
			ids = append(ids, fmt.Sprint(n))
		}
		return strings.Join(ids, ",")
	}
	sc, err := chaos.Parse(fmt.Sprintf("seed 1\nat 10s kill node=%d\nat 12s kill node=%d\nat 12s kill node=%d\nat 25s partition %s|%s\nat 35s heal\n",
		c.Topo.Partitions[1].Server, computeA, computeB, group(0, 2*size), group(2*size, 4*size)))
	if err != nil {
		t.Fatal(err)
	}
	ap := chaos.NewSimApplier(c.Engine, c.Net, func(n types.NodeID) { c.Hosts[n].PowerOff() })
	ap.Run(sc)
	c.RunFor(20 * time.Second)
	// The two compute nodes reboot together: their GSD reintegrates both.
	c.Hosts[computeA].PowerOn()
	c.Hosts[computeB].PowerOn()
	c.RunFor(40 * time.Second)
	if skipped := ap.Skipped(); len(skipped) != 0 {
		t.Fatalf("simulator skipped steps: %v", skipped)
	}
	return h.Sum64(), delivered
}

// TestSimRepeatablePerSeed: two builds of one seed, driven through the
// same faults, deliver the same messages in the same order. Go randomises
// map iteration per run, so any send loop ranging a map breaks this as
// soon as a fault makes that loop fire.
func TestSimRepeatablePerSeed(t *testing.T) {
	sumA, nA := simTraceHash(t)
	sumB, nB := simTraceHash(t)
	if sumA != sumB || nA != nB {
		t.Fatalf("same seed, different runs: %d messages hash %#x vs %d messages hash %#x", nA, sumA, nB, sumB)
	}
}
