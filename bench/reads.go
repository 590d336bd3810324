package main

import (
	"math/rand"
	"time"

	"repro/internal/types"
)

// readSLOus is read_closed's latency limit: a one-outstanding read on an
// idle loopback cluster has no reason to take a millisecond.
const readSLOus = 1000

// warmUp is how long every real-socket workload runs unmeasured first.
func warmUp(seconds float64) time.Duration {
	return dur(minf(2, seconds/5))
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// readMix is read_closed's request mix: 60 % keyed gets of the real node
// keys, 30 % partition-scope queries, 10 % cluster-scope queries.
func readMix(nodes int) func(*rand.Rand) op {
	return func(rng *rand.Rand) op {
		switch x := rng.Float64(); {
		case x < 0.6:
			return op{kind: opGet, node: types.NodeID(rng.Intn(nodes))}
		case x < 0.9:
			return op{kind: opQueryPartition}
		default:
			return op{kind: opQueryCluster}
		}
	}
}

// bootBulletinCluster boots the four-node cluster both bulletin workloads
// use and waits until the client has adopted a shard map and every real
// node's row is held by both bulletin instances, so no measured read pays
// the replica-miss back-off.
func bootBulletinCluster(seed int64, tr *tracer) (*realCluster, *bulletinDriver, error) {
	c, err := bootCluster(clusterSpec{parts: 2, size: 2, seed: seed, tracer: tr})
	if err != nil {
		return nil, nil, err
	}
	d := newBulletinDriver(c)
	nodes := c.topo.NumNodes()
	err = waitUntil(30*time.Second, "detector rows on every bulletin instance", func() bool {
		if !d.do(op{kind: opQueryCluster}) {
			return false
		}
		for _, st := range c.statuses() {
			if st.Shard != nil && st.Shard.PrimaryRows+st.Shard.ReplicaRows < nodes {
				return false
			}
		}
		adopted := false
		c.rtc.Do(func() { adopted = !d.client.Map().Empty() })
		return adopted
	})
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	d.wrong.Store(0) // set-up probes race the detectors' first samples by design
	return c, d, nil
}

// window is one measured stretch of a real-socket workload with what it
// cost the process and the cluster.
type window struct {
	out      []outcome
	late     samples
	bounds   []cpuSample // slice boundaries with the CPU clock at each
	failed   int         // operations that failed; a clean window has none
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	gcP99us  float64
	from, to clusterMark
}

// sliceWidth is the length of the slices a window of a run of the given
// size is cut into: one second at full size.
func sliceWidth(seconds float64) time.Duration { return dur(seconds / 20) }

// measure runs f as one window cut into slices of the given width,
// charging CPU, allocations, GC pauses and the cluster's counters to it.
func measure(c *realCluster, width time.Duration, f func() ([]outcome, samples)) window {
	var w window
	w.from = c.mark()
	mem := markMem()
	stop, sampled := make(chan struct{}), make(chan []cpuSample, 1)
	go sampleCPU(width, stop, sampled)
	cpu0, t0 := cpuTime(), time.Now()
	w.out, w.late = f()
	w.wall, w.cpu = time.Since(t0), cpuTime()-cpu0
	close(stop)
	w.bounds = <-sampled
	w.failed = len(w.out) - w.ok()
	w.mallocs, w.gcP99us = mem.since()
	w.to = c.mark()
	return w
}

// points are the window's successful calls the filter keeps, as (end,
// latency) pairs for slicing.
func (w window) points(keep func(op) bool) []point {
	pts := make([]point, 0, len(w.out))
	for _, o := range w.out {
		if o.ok && (keep == nil || keep(o.op)) {
			pts = append(pts, point{o.end, o.us})
		}
	}
	return pts
}

func (w window) ok() int {
	n := 0
	for _, o := range w.out {
		if o.ok {
			n++
		}
	}
	return n
}

// runFaultFree runs a workload's measured windows, and once more if a
// shard map changed, a node was declared failed or an operation failed
// meanwhile. A fault-free workload must stay fault-free, and a window that
// did not is not a measurement of it: the sandbox stalls the process for a
// second now and then, three attempts time out in a row, a breaker opens
// and thousands of calls fail fast. What fails twice running is reported.
func runFaultFree(res *result, windows func() []window) []window {
	for try := 0; ; try++ {
		ws := windows()
		faulted, failed := false, 0
		for _, w := range ws {
			faulted = faulted || !faultFree(w.from, w.to)
			failed += w.failed
		}
		switch {
		case !faulted && failed == 0:
			return ws
		case try == 0:
			res.note("window discarded (fault seen: %v, failed operations: %d); measuring again", faulted, failed)
		default:
			if faulted {
				res.problem("a shard map changed or a node was declared failed in both attempts at a fault-free window")
			}
			return ws // operations that failed twice running are the caller's to report
		}
	}
}

func runReadClosed(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceReadClosed(cfg)
	}
	c, d, err := bootBulletinCluster(cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	res := newResult()
	res.set("setup_s", time.Since(processStart).Seconds())

	mix := readMix(c.topo.NumNodes())
	width := sliceWidth(cfg.seconds)
	d.closedLoop(warmUp(cfg.seconds), 1, cfg.seed, mix, nil)
	ws := runFaultFree(res, func() []window {
		return []window{
			measure(c, width, func() ([]outcome, samples) {
				return d.closedLoop(dur(0.6*cfg.seconds), 1, cfg.seed+1, mix, nil), nil
			}),
			measure(c, width, func() ([]outcome, samples) {
				return d.closedLoop(dur(0.4*cfg.seconds), 8, cfg.seed+2, mix, nil), nil
			}),
		}
	})
	a, b := ws[0], ws[1]

	all, failedA := tally(a.out, nil)
	isCluster := func(o op) bool { return o.kind == opQueryCluster }
	rate, cpuPerKop := busiest(b.bounds, b.points(nil))
	calls := a.points(nil)
	res.set("op_p50_us", quietest(a.bounds, calls, 0.5))
	// The tail gated is p90: over sets of ten runs of unchanged code the
	// quietest slice's p99 moved by 8-28 %, its p95 by 7-20 %, its p90 by
	// 9 % where the p95 moved by 14 %.
	res.set("op_tail_us", quietest(a.bounds, calls, 0.90))
	res.set("op2_p50_us", quietest(a.bounds, a.points(isCluster), 0.5))
	res.set("slo_share", withinShare(all, readSLOus)*float64(len(all))/float64(len(a.out)))
	res.set("ops_per_s", rate)
	res.set("cpu_ms_per_kop", cpuPerKop)
	res.set("peak_rss_mb", peakRSSMB())
	res.attempted = len(a.out) + len(b.out)
	res.failed = failedA + len(b.out) - b.ok()
	tailV, tailP, n := tail(all)
	res.note("phase A, whole window: %d calls, p50 %.1f us, p%.2f %.1f us", n, median(all), 100*tailP, tailV)
	res.note("phase B, whole window: %d calls in %.2f s with 8 outstanding (%.0f/s), CPU %.2f s",
		len(b.out), b.wall.Seconds(), float64(b.ok())/b.wall.Seconds(), b.cpu.Seconds())
	checkBulletin(res, d)
	return res, nil
}

// checkBulletin turns the driver's answer checks into the run's verdict.
func checkBulletin(res *result, d *bulletinDriver) {
	if n := d.wrong.Load(); n > 0 {
		res.problem("%d incorrect answers; first: %v", n, d.firstBad.Load())
	}
	if res.failed > 0 {
		res.problem("%d of %d operations failed", res.failed, res.attempted)
	}
}
