package cluster_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/pws"
	"repro/internal/rpc"
	"repro/internal/types"
)

// traceHash hashes the envelope of every message c delivers from now on,
// in delivery order; the returned func reads the hash and the count.
func traceHash(c *cluster.Cluster) func() (uint64, int) {
	h := fnv.New64a()
	delivered := 0
	c.Net.Trace = func(msg types.Message) {
		fmt.Fprintf(h, "%d %d %v %v %d %s\n", c.Engine.Elapsed(), msg.Sent.UnixNano(),
			msg.From, msg.To, msg.NIC, msg.Type)
		delivered++
	}
	return func() (uint64, int) { return h.Sum64(), delivered }
}

// nodeList renders nodes lo..hi-1 as a DSL partition group.
func nodeList(lo, hi int) string {
	ids := make([]string, 0, hi-lo)
	for n := lo; n < hi; n++ {
		ids = append(ids, fmt.Sprint(n))
	}
	return strings.Join(ids, ",")
}

// runScript replays a chaos script on c for d of virtual time, with a
// mid-run hook, and fails the test if the simulator skipped a step.
func runScript(t *testing.T, c *cluster.Cluster, script string, d time.Duration, mid func()) {
	t.Helper()
	sc, err := chaos.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	ap := chaos.NewSimApplier(c.Engine, c.Net, func(n types.NodeID) { c.Hosts[n].PowerOff() })
	ap.Run(sc)
	c.RunFor(d / 3)
	if mid != nil {
		mid()
	}
	c.RunFor(d - d/3)
	if skipped := ap.Skipped(); len(skipped) != 0 {
		t.Fatalf("simulator skipped steps: %v", skipped)
	}
}

// requireRepeatable runs one seeded simulation twice: both runs must
// deliver the same messages in the same order. Go randomises map
// iteration per run, so any send loop ranging a map breaks this as soon
// as a fault makes that loop fire.
func requireRepeatable(t *testing.T, run func(t *testing.T) (uint64, int)) {
	sumA, nA := run(t)
	sumB, nB := run(t)
	if sumA != sumB || nA != nB {
		t.Fatalf("same seed, different runs: %d messages hash %#x vs %d messages hash %#x", nA, sumA, nB, sumB)
	}
	// Logged so a change that claims identical behaviour can quote both sides.
	t.Logf("%d messages delivered, trace hash %#x", nA, sumA)
}

// TestSimRepeatablePerSeed: the Small cluster through a server-node kill,
// two compute kills and a partition/heal.
func TestSimRepeatablePerSeed(t *testing.T) {
	requireRepeatable(t, func(t *testing.T) (uint64, int) {
		c, err := cluster.Build(cluster.Small())
		if err != nil {
			t.Fatal(err)
		}
		sum := traceHash(c)
		c.WarmUp()

		// Partition 1's server dies at 10 s and two compute nodes of
		// partition 2 at 12 s; at 25 s partitions 2-3 are cut off from 0-1
		// for ten seconds.
		size := c.Spec.PartitionSize
		computeA, computeB := types.NodeID(2*size+3), types.NodeID(2*size+5)
		runScript(t, c, fmt.Sprintf("seed 1\nat 10s kill node=%d\nat 12s kill node=%d\nat 12s kill node=%d\nat 25s partition %s|%s\nat 35s heal\n",
			c.Topo.Partitions[1].Server, computeA, computeB, nodeList(0, 2*size), nodeList(2*size, 4*size)),
			60*time.Second, func() {
				// The two compute nodes reboot together: their GSD
				// reintegrates both.
				c.Hosts[computeA].PowerOn()
				c.Hosts[computeB].PowerOn()
			})
		return sum()
	})
}

// TestSimRepeatablePerSeedWithPWS is the same check on the benchmark's
// scheduler shape: 64 nodes, PWS on partition 0 with a job backlog, and
// the benchmark's fault script (kill a compute node, kill a partition
// server, cut one partition off and heal it, kill the scheduler's node).
// The scheduler's failover replays its checkpoint and re-audits every
// running job.
func TestSimRepeatablePerSeedWithPWS(t *testing.T) {
	requireRepeatable(t, func(t *testing.T) (uint64, int) {
		c := pwsCluster(t)
		sum := traceHash(c)
		c.WarmUp()
		client := spawnSubmitter(t, c)
		parts := c.Topo.Partitions
		for i := 0; i < 200; i++ {
			client.Submit(pws.Job{Pool: fmt.Sprintf("pool%d", i%4), Name: fmt.Sprintf("b%d", i),
				Duration: time.Duration(5+i%7) * time.Second, Width: 1}, func(pws.SubmitAck) {})
		}

		// Partition 1 (nodes 16-31) is the one cut off.
		size := c.Spec.PartitionSize
		runScript(t, c, fmt.Sprintf("seed 1\nat 10s kill node=%d\nat 20s kill node=%d\nat 30s partition %s|%s\nat 33s heal\nat 40s kill node=%d\n",
			parts[1].Members[len(parts[1].Members)-1], parts[2].Server,
			nodeList(0, size)+","+nodeList(2*size, 4*size), nodeList(size, 2*size), parts[0].Server),
			60*time.Second, nil)
		return sum()
	})
}

// pwsCluster builds the benchmark's scheduler shape, not yet warmed up:
// 64 FastParams nodes, PWS on partition 0 over four uniform pools,
// refreshing its loads once per local-check period.
func pwsCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Build(cluster.Spec{
		Partitions: 4, PartitionSize: 16, NICs: 3, Seed: 1, Params: config.FastParams(),
		ExtraServices: map[types.PartitionID][]string{0: {types.SvcPWS}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pws.Deploy(c, pws.Spec{
		Partition: 0, Pools: pws.UniformPools(c, 4),
		SchedPeriod: c.Spec.Params.LocalCheckPeriod, UseBulletin: true,
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// spawnSubmitter starts a scheduler client on partition 3's last node and
// lets it boot.
func spawnSubmitter(t *testing.T, c *cluster.Cluster) *pws.Client {
	t.Helper()
	parts := c.Topo.Partitions
	var client *pws.Client
	proc := core.NewClientProc("submit", 3, parts[3].Server)
	proc.OnStart = func(cp *core.ClientProc) {
		client = pws.NewClient(cp.H, rpc.Budget(c.Spec.Params.RPCTimeout), func() (types.Addr, bool) {
			return types.Addr{Node: c.Kernel.ServerNode(0), Service: types.SvcPWS}, true
		})
	}
	proc.OnMessage = func(_ *core.ClientProc, msg types.Message) { client.Handle(msg) }
	if _, err := c.Host(parts[3].Members[len(parts[3].Members)-1]).Spawn(proc); err != nil {
		t.Fatal(err)
	}
	c.RunFor(500 * time.Millisecond)
	return client
}
