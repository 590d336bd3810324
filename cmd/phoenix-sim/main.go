// Command phoenix-sim boots a simulated Phoenix cluster, optionally
// injects faults from a chaos scenario file, and prints the cluster state
// as virtual time advances.
//
// Usage:
//
//	phoenix-sim -partitions 8 -size 17 -run 120s
//	phoenix-sim -chaos faults.txt
//
// The scenario is the chaos DSL phoenix-node -chaos replays (see
// phoenix-chaos), timed from the end of boot, for example:
//
//	at 30s kill node=12 svc=wd
//	at 60s kill node=33
//	at 90s nic-down plane=2 node=40
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/gridview"
	"repro/internal/metrics"
)

func main() {
	partitions := flag.Int("partitions", 4, "number of partitions")
	size := flag.Int("size", 8, "nodes per partition (server + backup + compute)")
	seed := flag.Int64("seed", 1, "simulation seed")
	runFor := flag.Duration("run", 60*time.Second, "virtual time to simulate")
	chaosPath := flag.String("chaos", "", "chaos scenario file to replay, timed from the end of boot")
	snapshotEvery := flag.Duration("snapshot", 20*time.Second, "status print period")
	showTrace := flag.Bool("trace", false, "print the sent messages and bytes per message type at the end")
	flag.Parse()

	spec := cluster.Small()
	spec.Partitions = *partitions
	spec.PartitionSize = *size
	spec.Seed = *seed
	c, err := cluster.Build(spec)
	if err != nil {
		fail(err)
	}
	c.WarmUp()

	gv := gridview.New(gridview.Spec{
		Partition: 0, Server: c.Topo.Partitions[0].Server, Refresh: 5 * time.Second,
	})
	if _, err := c.Host(c.Topo.Partitions[0].Members[2]).Spawn(gv); err != nil {
		fail(err)
	}

	if *chaosPath != "" {
		raw, err := os.ReadFile(*chaosPath)
		if err != nil {
			fail(err)
		}
		sc, err := chaos.Parse(string(raw))
		if err != nil {
			fail(err)
		}
		for _, st := range sc.Resolve() {
			st := st
			c.Engine.AfterFunc(st.At, func() { fmt.Printf("[%7.1fs] inject: %v\n", c.Engine.Elapsed().Seconds(), st) })
		}
		c.Chaos().Run(sc)
	}

	fmt.Printf("phoenix-sim: %d nodes in %d partitions, heartbeat %v, seed %d\n",
		c.Topo.NumNodes(), *partitions, spec.Params.HeartbeatInterval, *seed)
	end := c.Engine.Elapsed() + *runFor
	for c.Engine.Elapsed() < end {
		step := *snapshotEvery
		if remaining := end - c.Engine.Elapsed(); remaining < step {
			step = remaining
		}
		c.RunFor(step)
		fmt.Printf("[%7.1fs] %s", c.Engine.Elapsed().Seconds(), gv.Render())
	}
	fmt.Printf("done: %d events, %g kernel messages\n",
		c.Engine.Steps(), c.Metrics.Counter("net.msgs").Value())
	if *showTrace {
		fmt.Print(trafficTable(c.Metrics.Snapshot()))
	}
}

// trafficTable renders the per-type counters the simulated network keeps
// (net.msgs.<type>, net.bytes.<type>), largest count first.
func trafficTable(s metrics.Snapshot) string {
	bytesOf := make(map[string]float64)
	var rows []metrics.Sample
	for _, ctr := range s.Counters {
		if typ, ok := strings.CutPrefix(ctr.Name, "net.bytes."); ok {
			bytesOf[typ] = ctr.Value
		} else if typ, ok := strings.CutPrefix(ctr.Name, "net.msgs."); ok {
			rows = append(rows, metrics.Sample{Name: typ, Value: ctr.Value})
		}
	}
	// The snapshot is sorted by name, so equal counts stay in type order.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Value > rows[j].Value })
	var b strings.Builder
	total, _ := s.Counter("net.msgs")
	fmt.Fprintf(&b, "message traffic: %g sent\n", total)
	fmt.Fprintf(&b, "%-22s %10s %12s\n", "type", "count", "bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10g %12g\n", r.Name, r.Value, bytesOf[r.Name])
	}
	return b.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "phoenix-sim:", err)
	os.Exit(1)
}
