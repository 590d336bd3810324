package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMedianAndTail(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	if got := median(s); got != 500 {
		t.Errorf("median of 1..1000 = %v, want 500", got)
	}
	// 1000 samples: p99 has exactly ten samples beyond it.
	if v, pct, n := tail(s); v != 990 || pct != 0.99 || n != 1000 {
		t.Errorf("tail of 1..1000 = %v at %v over %d, want 990 at 0.99 over 1000", v, pct, n)
	}
	// 160 samples: the highest percentile with ten beyond is 1-10/160.
	if v, pct, n := tail(s[:160]); v != 990 || math.Abs(pct-0.9375) > 1e-12 || n != 160 {
		t.Errorf("tail of 160 samples = %v at %v over %d, want 990 (the 150th) at 0.9375", v, pct, n)
	}
	if v, pct, n := tail(samples{3, 1, 2}); v != 3 || pct != 1 || n != 3 {
		t.Errorf("tail of three samples = %v at %v over %d, want their maximum", v, pct, n)
	}
	if v, _, n := tail(nil); v != 0 || n != 0 {
		t.Errorf("tail of nothing = %v over %d", v, n)
	}
	// Python: statistics.quantiles(v, n=4) -> (q3-q1)/median.
	for _, c := range []struct {
		v    samples
		want float64
	}{
		{samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{samples{130, 131, 139, 139, 139, 142, 142, 158, 197, 217}, 0.2188612099644128},
		{samples{3, 1}, 1.5},
		{samples{5, 9, 2}, 1.4},
	} {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := withinShare(samples{1, 2, 3, 4}, 2); got != 0.5 {
		t.Errorf("withinShare = %v, want 0.5", got)
	}
}

// fakeClock is a pacer clock whose sleep can overshoot once.
type fakeClock struct {
	now     time.Time
	stallAt time.Duration // the first sleep ending at or after this offset...
	stall   time.Duration // ...overshoots by this much
	start   time.Time
}

func (c *fakeClock) pacer() pacer {
	return pacer{
		now: func() time.Time { return c.now },
		sleep: func(d time.Duration) {
			c.now = c.now.Add(d)
			if c.stall > 0 && c.now.Sub(c.start) >= c.stallAt {
				c.now = c.now.Add(c.stall)
				c.stall = 0
			}
		},
	}
}

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, start: start, stallAt: 30 * time.Millisecond, stall: 25 * time.Millisecond}
	var due []time.Duration
	for i := 1; i <= 10; i++ {
		due = append(due, time.Duration(i)*10*time.Millisecond)
	}
	// The system answers 1 ms after a request is issued.
	var latency []time.Duration
	late := clk.pacer().run(start, due, func(i int, dueAt time.Time) {
		if want := start.Add(due[i]); !dueAt.Equal(want) {
			t.Errorf("request %d handed due time %v, want %v", i, dueAt, want)
		}
		latency = append(latency, clk.now.Add(time.Millisecond).Sub(dueAt))
	})
	// The generator stalls 25 ms going into request 2 (due at 30 ms): it
	// and the two requests behind it (due at 40 and 50 ms) are issued late
	// and inherit the wait; request 5 (due at 60 ms) is on time again.
	wantLateMs := []float64{0, 0, 25, 15, 5, 0, 0, 0, 0, 0}
	for i, w := range wantLateMs {
		if got := late[i] / 1e3; got != w {
			t.Errorf("request %d lateness = %v ms, want %v", i, got, w)
		}
		if got, want := latency[i], time.Duration(w)*time.Millisecond+time.Millisecond; got != want {
			t.Errorf("request %d latency from due time = %v, want %v", i, got, want)
		}
	}
}

func TestStageSpansTileTheCall(t *testing.T) {
	base := time.Unix(2000, 0)
	offsets := []time.Duration{0, 31 * time.Microsecond, 48 * time.Microsecond, 119 * time.Microsecond,
		133 * time.Microsecond, 160 * time.Microsecond}
	var c callTrace
	for i, o := range offsets {
		c.T[i] = base.Add(o)
	}
	sp, ok := c.spans()
	if !ok {
		t.Fatal("complete trace reported incomplete")
	}
	sum := 0.0
	for _, v := range sp {
		sum += v
	}
	if e2e := float64(c.T[5].Sub(c.T[0])) / 1e3; sum != e2e {
		t.Errorf("five spans sum to %v us, call took %v us", sum, e2e)
	}
	if want := [5]float64{31, 17, 71, 14, 27}; sp != want {
		t.Errorf("spans = %v, want %v", sp, want)
	}
	c.T[3] = time.Time{}
	if _, ok := c.spans(); ok {
		t.Error("trace with a missing boundary reported complete")
	}

	// The tracer stamps boundaries only in order, only for data-bearing
	// datagrams, and only on the lane of the server the call went to.
	tr := &tracer{}
	tr.begin("get")
	tr.stamp(2, 0, 100)         // server inbound before the client sent: ignored
	tr.stamp(1, 0, frameHeader) // a bare ack: ignored
	tr.stamp(1, 0, 100)
	tr.stamp(2, 2, 100) // another server's lane: ignored
	tr.stamp(2, 0, 100)
	tr.stamp(3, 0, 100)
	tr.stamp(4, 0, 100)
	tr.end()
	if b := tr.budget(); b.Calls != 1 || b.Incomplete != 0 || b.ErrorPct > 1e-9 {
		t.Errorf("budget of one fully stamped call = %+v", b)
	}
	if tr.tryBegin("a") != true || tr.tryBegin("b") != false {
		t.Error("tryBegin must decline while a trace is open")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "lat", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "thr", Unit: "1/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		m            metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 100, 105, 0.02, "ok"},
		{lower, 100, 80, 0.02, "ok"},
		{lower, 100, 115, 0.02, "worse"},
		{lower, 100, 115, 0.20, "unresolved"},
		{higher, 1000, 950, 0.02, "ok"},
		{higher, 1000, 1300, 0.02, "ok"},
		{higher, 1000, 850, 0.02, "worse"},
		{higher, 1000, 850, 0.30, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.m, c.a, c.b, c.spread); got != c.want {
			t.Errorf("%s %v -> %v at spread %v: %s, want %s", c.m.Name, c.a, c.b, c.spread, got, c.want)
		}
	}

	spec := &benchSpec{EndToEnd: []metricDef{lower, higher}, PerLayer: []metricDef{{Name: "layer.x", Unit: "count"}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	rep := func(lat, thr float64) *suiteReport {
		return &suiteReport{Workloads: map[string]workloadReport{"w": {
			EndToEnd: runLine{Correct: true, Metrics: map[string]metricValue{"lat": {lat, "us"}, "thr": {thr, "1/s"}}},
			PerLayer: runLine{Correct: true, Metrics: map[string]metricValue{"layer.x": {3, "count"}}},
		}}}
	}
	var out bytes.Buffer
	if compareReports(&out, spec, calibrationFile{}, rep(100, 1000), rep(104, 990)) {
		t.Errorf("within-bound pair reported worse:\n%s", out.String())
	}
	out.Reset()
	if !compareReports(&out, spec, calibrationFile{}, rep(100, 1000), rep(100, 700)) {
		t.Errorf("throughput down 30%% not reported worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "layer.x") {
		t.Errorf("comparison output lacks the verdict or the per-layer row:\n%s", out.String())
	}
}

// TestSmoke runs every workload once untraced and once traced at a tenth
// of the full size (2 s windows, a 64-node simulator) and checks the
// reporting contract: every end-to-end metric measured, every value
// finite, no name BENCHMARK.json does not list, and every per-layer name
// measured by at least one workload. It asserts no performance and no
// correctness verdict: on a loaded test machine those are not this test's
// business.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real-socket clusters")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	run := map[string]func(runConfig) (*result, error){}
	for name, f := range workloads {
		run[name] = f
	}
	run["sim_faults"] = func(cfg runConfig) (*result, error) { return runSim(cfg, simShape{partitions: 4, size: 16}) }

	// All eight runs at once: they mostly wait on the kernel's own timers
	// (a cluster takes two seconds to boot), so the test is as long as the
	// longest of them, not their sum.
	type smoke struct {
		cfg runConfig
		res *result
		err error
	}
	var runs []*smoke
	var wg sync.WaitGroup
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			s := &smoke{cfg: runConfig{workload: w.Name, seed: 1, seconds: 2, trace: trace, outDir: t.TempDir()}}
			runs = append(runs, s)
			f, ok := run[w.Name]
			if !ok {
				t.Fatalf("no harness for workload %q", w.Name)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.res, s.err = f(s.cfg)
			}()
		}
	}
	wg.Wait()
	layerSeen := make(map[string]bool)
	for _, s := range runs {
		name := fmt.Sprintf("%s (trace %v)", s.cfg.workload, s.cfg.trace)
		if s.err != nil {
			t.Errorf("%s: %v", name, s.err)
			continue
		}
		line, err := report(io.Discard, spec, s.cfg, s.res)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s.res.attempted < 1 || !strings.HasPrefix(line, `{"correct":`) {
			t.Errorf("%s: attempted %d, result line %s", name, s.res.attempted, line)
		}
		for _, p := range s.res.problems {
			t.Logf("%s, not asserted here: %s", name, p)
		}
		if s.cfg.trace {
			for metric := range s.res.values {
				layerSeen[metric] = true
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !layerSeen[m.Name] {
			t.Errorf("per-layer metric %q is measured by no workload", m.Name)
		}
	}
}
