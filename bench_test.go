// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation under `go test -bench`. Each benchmark runs the
// corresponding experiment end-to-end and reports the paper's headline
// quantities as custom metrics (seconds for the fault-tolerance phases,
// efficiency percent for Linpack, message counts for the PWS/PBS
// comparison), so regressions in the reproduced *shape* show up as metric
// drift, not just time.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/linpack"
	"repro/internal/sim"
	"repro/internal/types"
)

// benchFault runs one Table 1-3 scenario per iteration and reports the
// three phases.
func benchFault(b *testing.B, svc string, kind types.FaultKind) {
	b.Helper()
	var detect, diagnose, recover float64
	for i := 0; i < b.N; i++ {
		in, err := experiments.RunFault(cluster.PaperTestbed(), svc, kind)
		if err != nil {
			b.Fatal(err)
		}
		detect += in.Detect().Seconds()
		diagnose += in.Diagnose().Seconds()
		recover += in.Recover().Seconds()
	}
	n := float64(b.N)
	b.ReportMetric(detect/n, "detect-s")
	b.ReportMetric(diagnose/n, "diagnose-s")
	b.ReportMetric(recover/n, "recover-s")
}

func BenchmarkTable1WDFault(b *testing.B) {
	for _, kind := range []types.FaultKind{types.FaultProcess, types.FaultNode, types.FaultNIC} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) { benchFault(b, types.SvcWD, kind) })
	}
}

func BenchmarkTable2GSDFault(b *testing.B) {
	for _, kind := range []types.FaultKind{types.FaultProcess, types.FaultNode, types.FaultNIC} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) { benchFault(b, types.SvcGSD, kind) })
	}
}

func BenchmarkTable3ESFault(b *testing.B) {
	for _, kind := range []types.FaultKind{types.FaultProcess, types.FaultNode, types.FaultNIC} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) { benchFault(b, types.SvcES, kind) })
	}
}

// BenchmarkTable4Linpack measures with/without-Phoenix throughput per CPU
// count (real compute on the wall clock; problem sizes are the quick ones).
func BenchmarkTable4Linpack(b *testing.B) {
	for _, cpus := range []int{4, 16, 64, 128} {
		cpus := cpus
		b.Run(fmt.Sprintf("cpus=%d", cpus), func(b *testing.B) {
			n := linpack.DefaultProblemSize(cpus) / 2
			var eff, gflops float64
			for i := 0; i < b.N; i++ {
				row, err := linpack.MeasureRow(cpus, n, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				eff += row.EfficiencyPct
				gflops += row.Without.GFlops
			}
			b.ReportMetric(eff/float64(b.N), "efficiency-%")
			b.ReportMetric(gflops/float64(b.N), "gflops")
		})
	}
}

// BenchmarkFig3Succession runs the five-member meta-group walk.
func BenchmarkFig3Succession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Federation runs the bulletin-federation behaviour check.
func BenchmarkFig5Federation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6MonitorScale sweeps cluster sizes and reports the paper's
// scalability quantities: bulletin query latency and per-node kernel
// traffic.
func BenchmarkFig6MonitorScale(b *testing.B) {
	for _, nodes := range []int{136, 320, 640} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var latency, msgs float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFig6([]int{nodes})
				if err != nil {
					b.Fatal(err)
				}
				p := res.Points[0]
				if p.Covered != p.Nodes {
					b.Fatalf("coverage %d of %d", p.Covered, p.Nodes)
				}
				latency += p.QueryLatency.Seconds()
				msgs += p.KernelMsgs
			}
			n := float64(b.N)
			b.ReportMetric(latency/n*1e3, "query-ms")
			b.ReportMetric(msgs/n, "kernel-msgs/node/s")
		})
	}
}

// BenchmarkPWSvsPBS runs the §5.4 comparison and reports the monitoring
// traffic of both systems plus the job-survival counts.
func BenchmarkPWSvsPBS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPWSvsPBS()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PBSPollMsgs, "pbs-poll-msgs")
		b.ReportMetric(res.PWSMonMsgs, "pws-mon-msgs")
		b.ReportMetric(float64(res.PWSCompleted), "pws-jobs-survived")
		b.ReportMetric(float64(res.PBSCompleted), "pbs-jobs-survived")
	}
}

// --- substrate micro-benchmarks --------------------------------------------

// BenchmarkSimEngine measures raw discrete-event throughput.
func BenchmarkSimEngine(b *testing.B) {
	eng := sim.New(1)
	eng.MaxSteps = uint64(b.N) + 10
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			eng.AfterFunc(time.Microsecond, tick)
		}
	}
	eng.AfterFunc(0, tick)
	b.ResetTimer()
	eng.Run()
}

// BenchmarkKernelSteadyState measures how much real time one virtual
// minute of a 136-node kernel costs (simulation efficiency).
func BenchmarkKernelSteadyState(b *testing.B) {
	c, err := cluster.Build(cluster.PaperTestbed())
	if err != nil {
		b.Fatal(err)
	}
	c.WarmUp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunFor(time.Minute)
	}
}

// BenchmarkLinpackFactor measures the right-looking LU kernel Table 4
// runs.
func BenchmarkLinpackFactor(b *testing.B) {
	a, _ := linpack.RandomSystem(384, 1)
	pool := linpack.NewPool(4)
	defer pool.Close()
	for i := 0; i < b.N; i++ {
		work := a.Clone()
		if _, err := linpack.Factor(work, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPartitioning compares the busiest management node under
// the paper's partitioned structure versus a flat master.
func BenchmarkAblationPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationPartitioning([]int{64, 128})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.PartitionedMaxRx, "partitioned-rx/s")
		b.ReportMetric(last.FlatMaxRx, "flat-rx/s")
	}
}

// BenchmarkAblationInterval sweeps the heartbeat interval trade-off.
func BenchmarkAblationInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunIntervalSweep([]time.Duration{5 * time.Second, 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].DetectTime.Seconds(), "detect-5s-interval-s")
		b.ReportMetric(res.Points[1].DetectTime.Seconds(), "detect-30s-interval-s")
	}
}
