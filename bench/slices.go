package main

import (
	"sort"
	"time"
)

// The sandbox this benchmark runs in is disturbed for seconds at a time:
// the same one-outstanding read loop has a median of 130 µs in one second
// and 230 µs in another, and a whole-window median inherits whatever share
// of the window was disturbed. So every timing is taken per slice of the
// window and the figure reported is that of the quietest slice — the
// lowest slice median, the highest slice rate, the leanest slice's CPU. A
// change to the product moves every slice; a neighbour does not.

// point is one completed operation: when it ended and its latency.
type point struct {
	at time.Time
	v  float64
}

// cpuSample is the process's CPU time at one instant of a window.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// sampleCPU records the process's CPU time every width until stop is
// closed, then delivers the samples: the slice boundaries of a window.
func sampleCPU(width time.Duration, stop <-chan struct{}, out chan<- []cpuSample) {
	s := []cpuSample{{time.Now(), cpuTime()}}
	tick := time.NewTicker(width)
	defer tick.Stop()
	for {
		select {
		case now := <-tick.C:
			s = append(s, cpuSample{now, cpuTime()})
		case <-stop:
			out <- append(s, cpuSample{time.Now(), cpuTime()})
			return
		}
	}
}

// bucket splits points over the slices the CPU samples bound; points
// outside every complete slice (the window's ragged end) are dropped.
func bucket(bounds []cpuSample, pts []point) [][]float64 {
	if len(bounds) < 2 {
		return nil
	}
	out := make([][]float64, len(bounds)-1)
	for _, p := range pts {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i].at.After(p.at) }) - 1
		if i >= 0 && i < len(out) {
			out[i] = append(out[i], p.v)
		}
	}
	return out
}

// fullSlices reports which slices hold at least half as many points as the
// median slice: the ragged first and last ones of an open loop do not.
func fullSlices(buckets [][]float64) []bool {
	counts := make(samples, len(buckets))
	for i, b := range buckets {
		counts[i] = float64(len(b))
	}
	floor := median(counts) / 2
	full := make([]bool, len(buckets))
	for i, b := range buckets {
		full[i] = len(b) > 0 && float64(len(b)) >= floor
	}
	return full
}

// sliceQuantiles returns the q-quantile of every full slice's points.
func sliceQuantiles(bounds []cpuSample, pts []point, q float64) samples {
	buckets := bucket(bounds, pts)
	full := fullSlices(buckets)
	var out samples
	for i, b := range buckets {
		if full[i] {
			out = append(out, quantile(samples(b).sorted(), q))
		}
	}
	if len(out) == 0 { // a window too short to slice: the whole is its one slice
		all := make(samples, len(pts))
		for i, p := range pts {
			all[i] = p.v
		}
		out = append(out, quantile(all.sorted(), q))
	}
	return out
}

// sliceRates returns every full slice's completion rate (per second) and
// CPU cost (ms per thousand completions).
func sliceRates(bounds []cpuSample, pts []point) (perSecond, cpuMsPerKop samples) {
	buckets := bucket(bounds, pts)
	full := fullSlices(buckets)
	for i, b := range buckets {
		if !full[i] {
			continue
		}
		width := bounds[i+1].at.Sub(bounds[i].at).Seconds()
		perSecond = append(perSecond, float64(len(b))/width)
		cpuMsPerKop = append(cpuMsPerKop, float64(bounds[i+1].cpu-bounds[i].cpu)/1e6/float64(len(b))*1000)
	}
	return perSecond, cpuMsPerKop
}

// quietest returns the lowest q-quantile any full slice has.
func quietest(bounds []cpuSample, pts []point, q float64) float64 {
	return sliceQuantiles(bounds, pts, q).sorted()[0]
}

// busiest returns the highest completion rate (per second) and the lowest
// CPU cost (ms per thousand completions) any full slice has.
func busiest(bounds []cpuSample, pts []point) (perSecond, cpuMsPerKop float64) {
	r, c := sliceRates(bounds, pts)
	if len(r) == 0 { // a window too short to slice: the whole is its one slice
		if len(bounds) < 2 || len(pts) == 0 {
			return 0, 0
		}
		first, last := bounds[0], bounds[len(bounds)-1]
		return float64(len(pts)) / last.at.Sub(first.at).Seconds(),
			float64(last.cpu-first.cpu) / 1e6 / float64(len(pts)) * 1000
	}
	return r.sorted()[len(r)-1], c.sorted()[0]
}

// typical returns the median slice's completion rate (per second) and CPU
// cost (ms per thousand completions): for a phase whose cost drifts one way
// from start to end, where the extreme slice is simply the first or the
// last one and carries that slice's own scatter.
func typical(bounds []cpuSample, pts []point) (perSecond, cpuMsPerKop float64) {
	r, c := sliceRates(bounds, pts)
	if len(r) == 0 { // a window too short to slice: the whole is its one slice
		return busiest(bounds, pts)
	}
	return median(r), median(c)
}
