package linpack_test

import (
	"fmt"

	"repro/internal/linpack"
)

// ExampleFactor solves a small dense system with the parallel LU kernel
// and checks the HPL-style residual.
func ExampleFactor() {
	a, b := linpack.RandomSystem(64, 1)
	pool := linpack.NewPool(4)
	defer pool.Close()

	work := a.Clone()
	piv, err := linpack.Factor(work, pool)
	if err != nil {
		fmt.Println("factor:", err)
		return
	}
	x := linpack.Solve(work, piv, b)
	fmt.Println("residual ok:", linpack.Residual(a, x, b) < 16)
	// Output: residual ok: true
}
