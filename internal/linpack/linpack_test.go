package linpack

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestFactorSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  →  x = 1, y = 3
	a := NewMatrix(2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	b := []float64{5, 10}
	orig := a.Clone()
	piv, err := Factor(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := Solve(a, piv, b)
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
	if r := Residual(orig, x, b); r > 16 {
		t.Fatalf("residual = %g", r)
	}
}

func TestFactorRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row exchange.
	a := NewMatrix(2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	b := []float64{2, 3}
	orig := a.Clone()
	piv, err := Factor(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := Solve(a, piv, b)
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
	if r := Residual(orig, x, b); r > 16 {
		t.Fatalf("residual = %g", r)
	}
}

func TestSingularRejected(t *testing.T) {
	a := NewMatrix(2) // all zeros
	if _, err := Factor(a, nil); err == nil {
		t.Fatal("singular matrix factorised")
	}
}

func TestParallelMatchesSerialBitwise(t *testing.T) {
	n := 128
	a, _ := RandomSystem(n, 42)
	serial := a.Clone()
	parallel := a.Clone()
	pivS, err := Factor(serial, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(8)
	defer pool.Close()
	pivP, err := Factor(parallel, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pivS {
		if pivS[i] != pivP[i] {
			t.Fatalf("pivot %d differs: %d vs %d", i, pivS[i], pivP[i])
		}
	}
	for i, v := range serial.Data {
		if v != parallel.Data[i] {
			t.Fatalf("element %d differs: %g vs %g (row partitioning must not change per-row arithmetic)", i, v, parallel.Data[i])
		}
	}
}

func TestRunResidualAcceptable(t *testing.T) {
	res, err := Run(192, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 16 {
		t.Fatalf("residual = %g, want < 16 (HPL acceptance)", res.Residual)
	}
	if res.GFlops <= 0 {
		t.Fatalf("gflops = %g", res.GFlops)
	}
}

// Property: random well-conditioned systems solve within the HPL residual
// bound, serial and parallel.
func TestPropertySolveResidual(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	f := func(seed int64, sz uint8) bool {
		n := int(sz%96) + 16
		a, b := RandomSystem(n, seed)
		work := a.Clone()
		piv, err := Factor(work, pool)
		if err != nil {
			return false
		}
		x := Solve(work, piv, b)
		return Residual(a, x, b) < 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolParallelRange(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	hits := make([]int, 100)
	pool.ParallelRange(0, 100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	// Empty and tiny ranges are safe.
	pool.ParallelRange(5, 5, func(lo, hi int) { t.Fatal("empty range ran") })
	ran := 0
	pool.ParallelRange(0, 2, func(lo, hi int) { ran += hi - lo })
	if ran != 2 {
		t.Fatalf("tiny range covered %d", ran)
	}
}

func TestOverheadRunsAndStops(t *testing.T) {
	o := StartOverhead(OverheadConfig{Nodes: 2, Period: time.Millisecond, Work: 100 * time.Microsecond})
	time.Sleep(20 * time.Millisecond)
	o.Stop()
	if o.Cycles() == 0 {
		t.Fatal("overhead emulation never cycled")
	}
	after := o.Cycles()
	time.Sleep(10 * time.Millisecond)
	if o.Cycles() != after {
		t.Fatal("overhead kept running after Stop")
	}
}

func TestMeasureRowShape(t *testing.T) {
	row, err := MeasureRow(4, 160, 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.Without.Residual > 16 || row.With.Residual > 16 {
		t.Fatalf("residuals: %g / %g", row.Without.Residual, row.With.Residual)
	}
	// The daemons must not devastate throughput; allow generous slack for
	// noisy CI machines.
	if row.EfficiencyPct < 30 || row.EfficiencyPct > 150 {
		t.Fatalf("efficiency = %.1f%%, implausible", row.EfficiencyPct)
	}
}

func TestDefaultProblemSizeMonotone(t *testing.T) {
	prev := 0
	for _, w := range []int{4, 16, 64, 128} {
		n := DefaultProblemSize(w)
		if n < prev {
			t.Fatalf("problem size shrank at %d workers", w)
		}
		prev = n
	}
}
