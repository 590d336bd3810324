// Package linpack implements the Linpack-style workload of the paper's
// Table 4: a dense LU factorisation with partial pivoting, parallelised
// over a worker pool, solving Ax=b and verifying the residual. The
// experiment measures the throughput penalty of running the Phoenix
// kernel's per-node daemons alongside the computation; package overhead.go
// provides that co-running load.
//
// Unlike the rest of the reproduction, this package computes for real and
// runs on the wall clock: daemon interference is a real-CPU phenomenon.
package linpack

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Matrix is a dense row-major n×n matrix.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix allocates an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.N : (i+1)*m.N] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// RandomSystem generates a well-conditioned random system (A, b) the way
// HPL does: uniform entries in [-0.5, 0.5) with a boosted diagonal.
func RandomSystem(n int, seed int64) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.Float64()-0.5)
		}
		a.Set(i, i, a.At(i, i)+float64(n)/8)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64() - 0.5
	}
	return a, b
}

// Factor performs in-place LU factorisation with partial pivoting using
// the given worker pool (nil means serial) and returns the pivot vector.
// Row updates are partitioned across workers each iteration; per-row
// arithmetic order is unchanged, so parallel and serial factorisations
// produce bitwise-identical results.
func Factor(a *Matrix, pool *Pool) ([]int, error) {
	n := a.N
	piv := make([]int, n)
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest magnitude in column k.
		p := k
		max := math.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a.At(i, k)); v > max {
				max, p = v, i
			}
		}
		if max == 0 {
			return nil, fmt.Errorf("linpack: singular matrix at column %d", k)
		}
		piv[k] = p
		if p != k {
			rk, rp := a.Row(k), a.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		// Scale multipliers and update the trailing submatrix.
		akk := a.At(k, k)
		update := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ri := a.Row(i)
				ri[k] /= akk
				lik := ri[k]
				rk := a.Row(k)
				for j := k + 1; j < n; j++ {
					ri[j] -= lik * rk[j]
				}
			}
		}
		if pool == nil || n-(k+1) < 64 {
			update(k+1, n)
		} else {
			pool.ParallelRange(k+1, n, update)
		}
	}
	return piv, nil
}

// Solve solves LUx = Pb given the factorisation and pivots, in place over
// a copy of b.
func Solve(lu *Matrix, piv []int, b []float64) []float64 {
	n := lu.N
	x := make([]float64, n)
	copy(x, b)
	// Apply the row exchanges, then forward substitution (L has unit
	// diagonal), then back substitution.
	for k := 0; k < n; k++ {
		if piv[k] != k {
			x[k], x[piv[k]] = x[piv[k]], x[k]
		}
		for i := k + 1; i < n; i++ {
			x[i] -= lu.At(i, k) * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= lu.At(i, j) * x[j]
		}
		x[i] = sum / lu.At(i, i)
	}
	return x
}

// Residual computes the HPL-style normalised residual
// ||Ax-b||_inf / (||A||_inf ||x||_inf n eps); values below ~16 indicate a
// correct solve.
func Residual(a *Matrix, x, b []float64) float64 {
	n := a.N
	var rNorm, aNorm, xNorm float64
	for i := 0; i < n; i++ {
		var ax float64
		var rowSum float64
		ri := a.Row(i)
		for j := 0; j < n; j++ {
			ax += ri[j] * x[j]
			rowSum += math.Abs(ri[j])
		}
		rNorm = math.Max(rNorm, math.Abs(ax-b[i]))
		aNorm = math.Max(aNorm, rowSum)
	}
	for _, v := range x {
		xNorm = math.Max(xNorm, math.Abs(v))
	}
	denom := aNorm * xNorm * float64(n) * 2.220446049250313e-16
	if denom == 0 {
		return math.Inf(1)
	}
	return rNorm / denom
}

// Result reports one benchmark run.
type Result struct {
	N        int
	Workers  int
	Elapsed  time.Duration
	GFlops   float64
	Residual float64
}

func (r Result) String() string {
	return fmt.Sprintf("n=%d workers=%d time=%v gflops=%.3f residual=%.2f",
		r.N, r.Workers, r.Elapsed, r.GFlops, r.Residual)
}

// Run generates a system, factorises it with the given worker count,
// solves, verifies, and reports throughput.
func Run(n, workers int, seed int64) (Result, error) {
	a, b := RandomSystem(n, seed)
	work := a.Clone()
	var pool *Pool
	if workers > 1 {
		pool = NewPool(workers)
		defer pool.Close()
	}
	start := time.Now()
	piv, err := Factor(work, pool)
	if err != nil {
		return Result{}, err
	}
	x := Solve(work, piv, b)
	elapsed := time.Since(start)
	flops := 2.0/3.0*float64(n)*float64(n)*float64(n) + 2.0*float64(n)*float64(n)
	return Result{
		N: n, Workers: workers, Elapsed: elapsed,
		GFlops:   flops / elapsed.Seconds() / 1e9,
		Residual: Residual(a, x, b),
	}, nil
}

// Pool is a persistent worker pool for the trailing-submatrix updates;
// reusing goroutines avoids per-iteration spawn cost on the O(n) critical
// path.
type Pool struct {
	workers int
	tasks   chan task
	wg      sync.WaitGroup
}

type task struct {
	lo, hi int
	fn     func(lo, hi int)
	done   *sync.WaitGroup
}

// NewPool starts a pool of the given size (at least 1; capped only by the
// caller — counts beyond NumCPU measure oversubscription on purpose).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, tasks: make(chan task, workers)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.fn(t.lo, t.hi)
				t.done.Done()
			}
		}()
	}
	return p
}

// Size reports the worker count.
func (p *Pool) Size() int { return p.workers }

// ParallelRange splits [lo, hi) into one chunk per worker and blocks until
// all chunks complete.
func (p *Pool) ParallelRange(lo, hi int, fn func(lo, hi int)) {
	count := hi - lo
	if count <= 0 {
		return
	}
	chunks := p.workers
	if chunks > count {
		chunks = count
	}
	var done sync.WaitGroup
	done.Add(chunks)
	base := count / chunks
	extra := count % chunks
	start := lo
	for c := 0; c < chunks; c++ {
		size := base
		if c < extra {
			size++
		}
		p.tasks <- task{lo: start, hi: start + size, fn: fn, done: &done}
		start += size
	}
	done.Wait()
}

// Close shuts the pool down.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// DefaultProblemSize picks a matrix size that keeps a Table 4 run in
// seconds on a development machine while still exceeding cache sizes.
func DefaultProblemSize(workers int) int {
	switch {
	case workers <= 4:
		return 512
	case workers <= 16:
		return 768
	case workers <= 64:
		return 1024
	default:
		return 1280
	}
}
