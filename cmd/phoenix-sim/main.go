// Command phoenix-sim boots a simulated Phoenix cluster, optionally
// injects faults from a small scenario language, and prints the cluster
// state as virtual time advances.
//
// Usage:
//
//	phoenix-sim -partitions 8 -size 17 -run 120s
//	phoenix-sim -scenario "30s kill-wd 12; 60s poweroff 33; 90s fail-nic 40 2"
//
// Scenario steps are "offset action args" separated by semicolons; actions
// are kill-wd <node>, kill-gsd <node>, kill-es <node>, poweroff <node>,
// poweron <node>, fail-nic <node> <nic>, fix-nic <node> <nic>.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/gridview"
	"repro/internal/metrics"
	"repro/internal/types"
)

func main() {
	partitions := flag.Int("partitions", 4, "number of partitions")
	size := flag.Int("size", 8, "nodes per partition (server + backup + compute)")
	seed := flag.Int64("seed", 1, "simulation seed")
	runFor := flag.Duration("run", 60*time.Second, "virtual time to simulate")
	scenario := flag.String("scenario", "", "semicolon-separated fault schedule")
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

	steps, err := parseScenario(*scenario)
	if err != nil {
		fail(err)
	}
	for _, st := range steps {
		st := st
		c.Engine.AfterFunc(st.at-c.Engine.Elapsed(), func() {
			fmt.Printf("[%7.1fs] inject: %s\n", c.Engine.Elapsed().Seconds(), st.desc)
			st.apply(c)
		})
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

type step struct {
	at    time.Duration
	desc  string
	apply func(c *cluster.Cluster)
}

func parseScenario(s string) ([]step, error) {
	var out []step
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	for _, item := range strings.Split(s, ";") {
		fields := strings.Fields(item)
		if len(fields) < 3 {
			return nil, fmt.Errorf("scenario step %q: want \"offset action node [nic]\"", item)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("scenario step %q: %v", item, err)
		}
		node, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("scenario step %q: bad node: %v", item, err)
		}
		id := types.NodeID(node)
		action := fields[1]
		st := step{at: at, desc: item}
		switch action {
		case "kill-wd":
			st.apply = func(c *cluster.Cluster) { _ = c.Host(id).Kill(types.SvcWD) }
		case "kill-gsd":
			st.apply = func(c *cluster.Cluster) { _ = c.Host(id).Kill(types.SvcGSD) }
		case "kill-es":
			st.apply = func(c *cluster.Cluster) { _ = c.Host(id).Kill(types.SvcES) }
		case "poweroff":
			st.apply = func(c *cluster.Cluster) { c.Host(id).PowerOff() }
		case "poweron":
			st.apply = func(c *cluster.Cluster) { c.Host(id).PowerOn() }
		case "fail-nic", "fix-nic":
			if len(fields) < 4 {
				return nil, fmt.Errorf("scenario step %q: want nic index", item)
			}
			nic, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("scenario step %q: bad nic: %v", item, err)
			}
			up := action == "fix-nic"
			st.apply = func(c *cluster.Cluster) { _ = c.Net.SetNICUp(id, nic, up) }
		default:
			return nil, fmt.Errorf("scenario step %q: unknown action %q", item, action)
		}
		out = append(out, st)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "phoenix-sim:", err)
	os.Exit(1)
}
