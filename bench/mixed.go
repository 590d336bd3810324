package main

import (
	"math/rand"
	"time"

	"repro/internal/types"
)

const (
	// mixedRate is mixed_open's offered load, about a tenth of what the
	// four-node cluster saturates at on two cores; at 2000/s and above the
	// tail moved twofold from run to run.
	mixedRate = 1000.0
	// mixedSLOus is its latency limit, counted from each request's due time.
	mixedSLOus = 5000
	// syntheticKeys is the number of generator-owned keys the mix draws from.
	syntheticKeys = 64
	writeShare    = 0.3
)

// mixedMix is mixed_open's request mix: 70 % keyed gets, 30 % acked
// writes, keys uniform over the synthetic keys.
func mixedMix(rng *rand.Rand) op {
	o := op{kind: opGet, node: syntheticBase + types.NodeID(rng.Intn(syntheticKeys))}
	if rng.Float64() < writeShare {
		o.kind = opPut
	}
	return o
}

// writeOnly draws acked writes over the synthetic keys: the write path
// alone, for its stage budget.
func writeOnly(rng *rand.Rand) op {
	return op{kind: opPut, node: syntheticBase + types.NodeID(rng.Intn(syntheticKeys))}
}

// seedSyntheticKeys writes every synthetic key and waits until both
// bulletin instances hold every row: an unwritten or unreplicated key
// would send reads down the replica-miss escalation and measure its 50 ms
// back-off instead of the system.
func seedSyntheticKeys(c *realCluster, d *bulletinDriver) error {
	want := c.topo.NumNodes() + syntheticKeys
	return waitUntil(30*time.Second, "synthetic rows on every bulletin instance", func() bool {
		for k := 0; k < syntheticKeys; k++ {
			if !d.do(op{kind: opPut, node: syntheticBase + types.NodeID(k)}) {
				return false
			}
		}
		time.Sleep(2 * c.params.BulletinDeltaFlush)
		for _, st := range c.statuses() {
			if st.Shard != nil && st.Shard.PrimaryRows+st.Shard.ReplicaRows < want {
				return false
			}
		}
		return true
	})
}

// openWindow measures one open-loop stretch of the mix at mixedRate.
func openWindow(c *realCluster, d *bulletinDriver, seed int64, length, width time.Duration) window {
	rng := rand.New(rand.NewSource(seed))
	due := poissonSchedule(rng, mixedRate, length)
	ops := make([]op, len(due))
	for i := range ops {
		ops[i] = mixedMix(rng)
	}
	return measure(c, width, func() ([]outcome, samples) {
		return d.openLoop(time.Now().Add(time.Millisecond), due, ops)
	})
}

func runMixedOpen(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceMixedOpen(cfg)
	}
	c, d, err := bootBulletinCluster(cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	if err := seedSyntheticKeys(c, d); err != nil {
		return nil, err
	}
	res := newResult()
	res.set("setup_s", time.Since(processStart).Seconds())

	width := sliceWidth(cfg.seconds)
	openWindow(c, d, cfg.seed, warmUp(cfg.seconds), width)
	ws := runFaultFree(res, func() []window {
		return []window{
			openWindow(c, d, cfg.seed+1, dur(0.7*cfg.seconds), width),
			measure(c, width, func() ([]outcome, samples) {
				return d.closedLoop(dur(0.3*cfg.seconds), 8, cfg.seed+2, mixedMix, nil), nil
			}),
		}
	})
	a, b := ws[0], ws[1]

	isRead := func(o op) bool { return !o.isWrite() }
	reads, failedR := tally(a.out, isRead)
	writes, failedW := tally(a.out, op.isWrite)
	all, _ := tally(a.out, nil)
	rate, _ := busiest(b.bounds, b.points(nil))
	readPts := a.points(isRead)
	res.set("op_p50_us", quietest(a.bounds, readPts, 0.5))
	// The tail gated here is p90: beyond it an open loop's latency from due
	// time is the pacer's own lateness (the sandbox's timer wakes it 1-3 ms
	// late about once in a hundred sleeps), and p95 and p99 moved more than
	// a third between runs of unchanged code.
	res.set("op_tail_us", quietest(a.bounds, readPts, 0.90))
	res.set("op2_p50_us", quietest(a.bounds, a.points(op.isWrite), 0.5))
	res.set("slo_share", withinShare(all, mixedSLOus)*float64(len(all))/float64(len(a.out)))
	res.set("ops_per_s", rate)
	// CPU over the whole open-loop window: at a tenth of saturation a
	// one-second slice's CPU is whatever background work fell into it, and
	// the leanest slice moved twice as much between runs as the whole did.
	res.set("cpu_ms_per_kop", float64(a.cpu.Microseconds())/float64(a.ok()))
	res.set("peak_rss_mb", peakRSSMB())
	res.attempted = len(a.out) + len(b.out)
	res.failed = failedR + failedW + len(b.out) - b.ok()
	tailV, tailP, n := tail(reads)
	allTail, allTailP, _ := tail(all)
	lateTail, _, _ := tail(a.late)
	res.note("open loop, whole window: %d requests at %.0f/s in %.2f s; reads %d p50 %.1f us p%.2f %.1f us; writes %d p50 %.1f us",
		len(a.out), mixedRate, a.wall.Seconds(), n, median(reads), 100*tailP, tailV, len(writes), median(writes))
	res.note("open loop, all requests: p%.2f %.1f us; generator lateness p50 %.1f us, tail %.1f us; CPU %.2f s",
		100*allTailP, allTail, median(a.late), lateTail, a.cpu.Seconds())
	res.note("saturation, whole window: %d calls in %.2f s with 8 outstanding (%.0f/s)",
		len(b.out), b.wall.Seconds(), float64(b.ok())/b.wall.Seconds())
	checkBulletin(res, d)
	return res, nil
}
