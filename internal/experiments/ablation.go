package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/types"
)

// AblationPoint compares the paper's partitioned group structure against
// the flat alternative (one group/master managing every node — the
// master-slave and single-group designs §4.3 argues against) at one
// cluster size.
type AblationPoint struct {
	Nodes            int
	PartitionedMaxRx float64 // busiest node's receive rate, partitioned (msgs/s)
	FlatMaxRx        float64 // busiest node's receive rate, flat (msgs/s)
}

// AblationResult is the partition-structure ablation.
type AblationResult struct {
	Points []AblationPoint
}

// maxServerRx measures the busiest server node's receive rate over a
// window at steady state.
func maxServerRx(c *cluster.Cluster, window time.Duration) float64 {
	before := make(map[types.NodeID]float64)
	for _, p := range c.Topo.Partitions {
		before[p.Server] = c.Metrics.Counter("net.rx." + p.Server.String()).Value()
	}
	c.RunFor(window)
	var max float64
	for _, p := range c.Topo.Partitions {
		rate := (c.Metrics.Counter("net.rx."+p.Server.String()).Value() - before[p.Server]) / window.Seconds()
		if rate > max {
			max = rate
		}
	}
	return max
}

// RunAblationPartitioning sweeps cluster sizes and measures the busiest
// management node under (a) the paper's partitioned structure (16-node
// partitions) and (b) a flat structure (one partition spanning the whole
// cluster). The partitioned design keeps the busiest node's load constant;
// the flat design's master load grows linearly — the paper's §4.3 argument
// quantified.
func RunAblationPartitioning(sizes []int) (AblationResult, error) {
	if len(sizes) == 0 {
		sizes = []int{64, 128, 256}
	}
	var out AblationResult
	const window = 30 * time.Second
	for _, nodes := range sizes {
		point := AblationPoint{Nodes: nodes}
		{
			spec := cluster.Small()
			spec.Partitions = nodes / 16
			spec.PartitionSize = 16
			c, err := cluster.Build(spec)
			if err != nil {
				return out, err
			}
			c.WarmUp()
			c.RunFor(2 * time.Second)
			point.PartitionedMaxRx = maxServerRx(c, window)
		}
		{
			spec := cluster.Small()
			spec.Partitions = 1
			spec.PartitionSize = nodes
			c, err := cluster.Build(spec)
			if err != nil {
				return out, err
			}
			c.WarmUp()
			c.RunFor(2 * time.Second)
			point.FlatMaxRx = maxServerRx(c, window)
		}
		out.Points = append(out.Points, point)
	}
	return out, nil
}

// Render draws the ablation.
func (r AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — partitioned group structure vs flat master (§4.3 design argument)\n")
	fmt.Fprintf(&b, "%-7s %-26s %-26s %s\n", "nodes", "partitioned max rx (msg/s)", "flat master rx (msg/s)", "flat/partitioned")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 80))
	for _, p := range r.Points {
		ratio := 0.0
		if p.PartitionedMaxRx > 0 {
			ratio = p.FlatMaxRx / p.PartitionedMaxRx
		}
		fmt.Fprintf(&b, "%-7d %-26.1f %-26.1f %.1fx\n", p.Nodes, p.PartitionedMaxRx, p.FlatMaxRx, ratio)
	}
	b.WriteString("(partitioning bounds per-server load; the flat master grows with the cluster)\n")
	return b.String()
}

// IntervalPoint is one heartbeat-interval setting in the detection-versus-
// overhead sweep.
type IntervalPoint struct {
	Interval   time.Duration
	DetectTime time.Duration
	MsgsPerSec float64 // total kernel messages per second at steady state
}

// IntervalSweepResult quantifies the trade-off the paper leaves as a
// configurable system parameter: shorter heartbeat intervals detect faster
// but cost proportionally more traffic.
type IntervalSweepResult struct {
	Points []IntervalPoint
}

// RunIntervalSweep measures WD process-fault detection time and kernel
// traffic for several heartbeat intervals on the paper testbed topology.
func RunIntervalSweep(intervals []time.Duration) (IntervalSweepResult, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{5 * time.Second, 15 * time.Second, 30 * time.Second, 60 * time.Second}
	}
	var out IntervalSweepResult
	for _, interval := range intervals {
		spec := cluster.PaperTestbed()
		spec.Params.HeartbeatInterval = interval
		spec.Params.MetaHeartbeatInterval = interval
		spec.Params.LocalCheckPeriod = interval

		// Traffic at steady state.
		c, err := cluster.Build(spec)
		if err != nil {
			return out, err
		}
		c.WarmUp()
		c.RunFor(2 * interval)
		window := 4 * interval
		before := c.Metrics.Counter("net.msgs").Value()
		c.RunFor(window)
		rate := (c.Metrics.Counter("net.msgs").Value() - before) / window.Seconds()

		// Detection time for a WD process fault.
		in, err := RunFault(spec, types.SvcWD, types.FaultProcess)
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, IntervalPoint{
			Interval:   interval,
			DetectTime: in.Detect(),
			MsgsPerSec: rate,
		})
	}
	return out, nil
}

// Render draws the sweep.
func (r IntervalSweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — heartbeat interval: detection latency vs kernel traffic (136 nodes)\n")
	fmt.Fprintf(&b, "%-10s %-14s %s\n", "interval", "detect time", "kernel msgs/s")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 44))
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10v %-14v %.1f\n", p.Interval, p.DetectTime.Round(10*time.Millisecond), p.MsgsPerSec)
	}
	b.WriteString("(the paper sets 30s as a configurable system parameter; this is the trade-off)\n")
	return b.String()
}
