package linpack

import (
	"sync"
	"time"
)

// Overhead emulates the Phoenix kernel daemons co-running with a Linpack
// job: per simulated node, a goroutine periodically performs
// detector-sampling-sized work (reading counters, hashing state, composing
// a heartbeat) and sleeps. With the default calibration each node's
// daemons consume roughly one percent of one CPU — the paper's Table 4
// found the kernel's impact on Linpack to be of that order.
type Overhead struct {
	stop chan struct{}
	wg   sync.WaitGroup
	// Cycles counts completed duty cycles across all daemon goroutines.
	mu     sync.Mutex
	cycles int64
	sink   float64
}

// OverheadConfig tunes the emulation.
type OverheadConfig struct {
	Nodes  int           // simulated nodes (one daemon set each)
	Period time.Duration // sampling period (default 50 ms)
	Work   time.Duration // busy time per period (default 500 µs → 1% duty)
}

// StartOverhead launches the daemon emulation.
func StartOverhead(cfg OverheadConfig) *Overhead {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.Period == 0 {
		cfg.Period = 50 * time.Millisecond
	}
	if cfg.Work == 0 {
		cfg.Work = 500 * time.Microsecond
	}
	o := &Overhead{stop: make(chan struct{})}
	for i := 0; i < cfg.Nodes; i++ {
		o.wg.Add(1)
		go o.daemon(cfg, int64(i+1))
	}
	return o
}

func (o *Overhead) daemon(cfg OverheadConfig, seed int64) {
	defer o.wg.Done()
	ticker := time.NewTicker(cfg.Period)
	defer ticker.Stop()
	x := float64(seed)
	for {
		select {
		case <-o.stop:
			return
		case <-ticker.C:
			deadline := time.Now().Add(cfg.Work)
			for time.Now().Before(deadline) {
				// Detector-flavoured busywork: a short numeric loop the
				// compiler cannot remove.
				for i := 0; i < 1024; i++ {
					x = x*1.000000119 + 0.3
					if x > 1e12 {
						x = 1
					}
				}
			}
			o.mu.Lock()
			o.cycles++
			o.sink = x
			o.mu.Unlock()
		}
	}
}

// Cycles reports completed duty cycles (nonzero proves the load ran).
func (o *Overhead) Cycles() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cycles
}

// Stop halts the emulation and waits for the goroutines to exit.
func (o *Overhead) Stop() {
	close(o.stop)
	o.wg.Wait()
}

// Table4Row measures Linpack throughput with and without the Phoenix
// daemons for one worker count and reports the efficiency ratio
// (with/without), the quantity whose closeness to 1.0 is Table 4's
// finding.
type Table4Row struct {
	Workers       int
	N             int
	Without       Result
	With          Result
	EfficiencyPct float64
}

// minMeasure is the least wall time the trials of each configuration
// span. A small factorisation finishes in milliseconds, where a single
// scheduler preemption outweighs the percent-level effect being
// measured, so such rows take the best of many trials instead of two.
const minMeasure = 100 * time.Millisecond

// MeasureRow runs the with/without pair. nodes is how many nodes' worth of
// daemons co-run (the paper: one daemon set per node, CPUs/4 nodes). A
// warm-up factorisation runs first; then trials alternate between the two
// configurations — at least two each, and until each has run for
// minMeasure — and each configuration keeps its best trial, so cache
// warm-up, scheduler noise and load that comes and goes during the
// measurement do not masquerade as kernel overhead.
func MeasureRow(workers, n int, seed int64) (Table4Row, error) {
	if _, err := Run(n, workers, seed); err != nil { // warm-up
		return Table4Row{}, err
	}
	nodes := workers / 4
	if nodes < 1 {
		nodes = 1
	}
	withOverhead := func(seed int64) (Result, error) {
		ov := StartOverhead(OverheadConfig{Nodes: nodes})
		defer ov.Stop()
		return Run(n, workers, seed)
	}
	var base, withRes Result
	var spent time.Duration
	for trial := int64(0); trial < 2 || spent < minMeasure; trial++ {
		b, err := Run(n, workers, seed+trial)
		if err != nil {
			return Table4Row{}, err
		}
		w, err := withOverhead(seed + trial)
		if err != nil {
			return Table4Row{}, err
		}
		if b.GFlops > base.GFlops {
			base = b
		}
		if w.GFlops > withRes.GFlops {
			withRes = w
		}
		spent += min(b.Elapsed, w.Elapsed)
	}
	return Table4Row{
		Workers: workers, N: n,
		Without:       base,
		With:          withRes,
		EfficiencyPct: 100 * withRes.GFlops / base.GFlops,
	}, nil
}
