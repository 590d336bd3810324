package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 5000 {
		t.Fatalf("concurrent counter = %g, want 5000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %g, want 7", got)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Observe(time.Duration(i) * time.Second)
	}
	if h.Count() != 10 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 5500*time.Millisecond {
		t.Fatalf("mean = %v, want 5.5s", got)
	}
	if got := h.Min(); got != time.Second {
		t.Fatalf("min = %v", got)
	}
	if got := h.Max(); got != 10*time.Second {
		t.Fatalf("max = %v", got)
	}
	if got := h.Quantile(0.5); got != 5*time.Second {
		t.Fatalf("median = %v, want 5s", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.9) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Second)
	h.Observe(time.Second)
	_ = h.Quantile(0.5) // forces sort
	h.Observe(2 * time.Second)
	if got := h.Quantile(0.5); got != 2*time.Second {
		t.Fatalf("median after re-observe = %v, want 2s", got)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(time.Duration(v) * time.Millisecond)
		}
		prev := h.Quantile(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return h.Quantile(0) == h.Min() && h.Quantile(1) == h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Counter("x").Inc()
	if got := r.Counter("x").Value(); got != 2 {
		t.Fatalf("registry did not reuse counter: %g", got)
	}
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(time.Second)
	snap := r.Snapshot().String()
	for _, want := range []string{"counter x 2", "gauge g 1", "hist h count=1"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
}

func TestSnapshotStableOrder(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid.dle", "alpha.2"} {
		r.Counter(n).Inc()
		r.Gauge(n + ".g").Set(1)
		r.Histogram(n + ".h").Observe(time.Millisecond)
	}
	s := r.Snapshot()
	if len(s.Counters) != 4 || len(s.Gauges) != 4 || len(s.Hists) != 4 {
		t.Fatalf("snapshot sizes = %d/%d/%d, want 4/4/4", len(s.Counters), len(s.Gauges), len(s.Hists))
	}
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters not sorted: %q >= %q", s.Counters[i-1].Name, s.Counters[i].Name)
		}
	}
	// A second snapshot must list the same names in the same order.
	s2 := r.Snapshot()
	for i := range s.Counters {
		if s.Counters[i].Name != s2.Counters[i].Name {
			t.Fatalf("snapshot order unstable at %d: %q vs %q", i, s.Counters[i].Name, s2.Counters[i].Name)
		}
	}
	if v, ok := s.Counter("zeta"); !ok || v != 1 {
		t.Fatalf("Counter(zeta) = %g, %v", v, ok)
	}
	if _, ok := s.Counter("nope"); ok {
		t.Fatal("Counter(nope) should be absent")
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Summary()
	if s.Count != 100 || s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != 50*time.Millisecond || s.P90 != 90*time.Millisecond || s.P99 != 99*time.Millisecond {
		t.Fatalf("quantiles = p50 %v p90 %v p99 %v", s.P50, s.P90, s.P99)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Sum != 5050*time.Millisecond {
		t.Fatalf("sum = %v", s.Sum)
	}
}

// An empty histogram must summarise to all-zero — never NaN or a panic —
// so /metrics can always render it.
func TestHistogramSummaryEmpty(t *testing.T) {
	var h Histogram
	if s := h.Summary(); s != (HistSummary{}) {
		t.Fatalf("empty summary = %+v, want zero value", s)
	}
	r := NewRegistry()
	r.Histogram("empty") // registered but never observed
	snap := r.Snapshot()
	if len(snap.Hists) != 1 || snap.Hists[0].Count != 0 || snap.Hists[0].Mean != 0 {
		t.Fatalf("empty histogram snapshot = %+v", snap.Hists)
	}
	if strings.Contains(snap.String(), "NaN") {
		t.Fatalf("snapshot rendered NaN:\n%s", snap.String())
	}
}

func TestIncidentPhases(t *testing.T) {
	base := time.Unix(1000, 0)
	in := &Incident{InjectedAt: base}
	in.DetectedAt = base.Add(30 * time.Second)
	in.DiagnosedAt = base.Add(30*time.Second + 290*time.Millisecond)
	in.RecoveredAt = base.Add(30*time.Second + 290*time.Millisecond + 100*time.Millisecond)
	if got := in.Detect(); got != 30*time.Second {
		t.Fatalf("detect = %v", got)
	}
	if got := in.Diagnose(); got != 290*time.Millisecond {
		t.Fatalf("diagnose = %v", got)
	}
	if got := in.Recover(); got != 100*time.Millisecond {
		t.Fatalf("recover = %v", got)
	}
	if got := in.Sum(); got != 30*time.Second+390*time.Millisecond {
		t.Fatalf("sum = %v", got)
	}
	if !in.Complete() {
		t.Fatal("fully stamped incident reported incomplete")
	}
}

func TestIncidentNoRecovery(t *testing.T) {
	base := time.Unix(0, 0)
	in := &Incident{InjectedAt: base, NoRecovery: true}
	in.DetectedAt = base.Add(30 * time.Second)
	in.DiagnosedAt = in.DetectedAt.Add(348 * time.Microsecond)
	if got := in.Recover(); got != 0 {
		t.Fatalf("NoRecovery incident recover = %v, want 0", got)
	}
	if !in.Complete() {
		t.Fatal("NoRecovery incident with detect+diagnose should be complete")
	}
}

func TestIncidentIncomplete(t *testing.T) {
	in := &Incident{InjectedAt: time.Unix(0, 0)}
	if in.Complete() {
		t.Fatal("unstamped incident reported complete")
	}
	if in.Sum() != -1 {
		t.Fatalf("incomplete sum = %v, want -1", in.Sum())
	}
}
