package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is taken as early as the runtime lets us; setup_s counts
// from here.
var processStart = time.Now()

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// memMark snapshots the allocator and GC counters a window is charged
// against.
type memMark struct {
	mallocs uint64
	pauses  *metrics.Float64Histogram
}

const gcPauseMetric = "/gc/pauses:seconds"

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: gcPauseMetric}}
	metrics.Read(s)
	m := memMark{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		m.pauses = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return m
}

// since reports heap allocations and the p99 stop-the-world pause (µs,
// bucket upper bound) between the mark and now.
func (m memMark) since() (mallocs uint64, gcPauseP99us float64) {
	now := markMem()
	mallocs = now.mallocs - m.mallocs
	if m.pauses == nil || now.pauses == nil || len(now.pauses.Counts) != len(m.pauses.Counts) {
		return mallocs, 0
	}
	var total uint64
	delta := make([]uint64, len(now.pauses.Counts))
	for i := range delta {
		delta[i] = now.pauses.Counts[i] - m.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return mallocs, 0
	}
	want := total - total/100
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= want {
			upper := now.pauses.Buckets[i+1]
			if upper > 1 { // the +Inf bucket: report its lower edge
				upper = now.pauses.Buckets[i]
			}
			return mallocs, upper * 1e6
		}
	}
	return mallocs, 0
}
