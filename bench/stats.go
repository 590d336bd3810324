package main

import (
	"math"
	"sort"
)

// samples is a latency population in one unit (the caller's choice).
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of an ascending population by
// nearest rank; 0 for an empty one.
func quantile(sorted samples, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(s samples) float64 { return quantile(s.sorted(), 0.5) }

// tail reports the highest percentile that still has at least ten samples
// beyond it, capped at p99: the value, the percentile (0..1) and the
// sample count. Populations of ten or fewer have no such percentile and
// report their maximum as percentile 1.
func tail(s samples) (value, pct float64, n int) {
	sorted := s.sorted()
	n = len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= 10 {
		return sorted[n-1], 1, n
	}
	pct = 1 - 10/float64(n)
	if pct > 0.99 {
		pct = 0.99
	}
	return quantile(sorted, pct), pct, n
}

// withinShare is the share of the population at or below limit.
func withinShare(s samples, limit float64) float64 {
	if len(s) == 0 {
		return 0
	}
	ok := 0
	for _, v := range s {
		if v <= limit {
			ok++
		}
	}
	return float64(ok) / float64(len(s))
}

func mean(s samples) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the driver's measure of how
// much a metric moves between runs. It needs at least two values.
func quartileSpread(s samples) float64 {
	x := s.sorted()
	n := len(x)
	med := (x[(n-1)/2] + x[n/2]) / 2
	if n < 2 || med == 0 {
		return 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // beyond [0,4] at the ends: Python extrapolates there too
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return (cut(3) - cut(1)) / med
}
