package factor_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/factor"
)

// ExampleLU factors a small system with CALU and solves it.
func ExampleLU() {
	// A 3x3 system with known solution x = (1, 2, 3).
	a := factor.FromRows([][]float64{
		{4, 1, 0},
		{1, 5, 2},
		{0, 2, 6},
	})
	rhs := factor.FromRows([][]float64{{6}, {17}, {22}})

	lu, err := factor.LU(a, factor.Options{})
	if err != nil {
		panic(err)
	}
	lu.Solve(rhs)
	fmt.Printf("x = (%.0f, %.0f, %.0f)\n", rhs.At(0, 0), rhs.At(1, 0), rhs.At(2, 0))
	// Output: x = (1, 2, 3)
}

// ExampleQR solves a tiny least-squares problem with CAQR.
func ExampleQR() {
	// Fit y = c0 + c1*t through (0,1), (1,3), (2,5), (3,7): exactly
	// y = 1 + 2t.
	a := factor.FromRows([][]float64{
		{1, 0},
		{1, 1},
		{1, 2},
		{1, 3},
	})
	obs := factor.FromRows([][]float64{{1}, {3}, {5}, {7}})

	qr, err := factor.QR(a, factor.Options{})
	if err != nil {
		panic(err)
	}
	x := qr.LeastSquares(obs)
	fmt.Printf("y = %.0f + %.0f t\n", x.At(0, 0), x.At(1, 0))
	// Output: y = 1 + 2 t
}

// ExampleEngine_LUCtx shows request cancellation on a shared engine: a
// caller that has given up (closed connection, expired deadline) gets a
// wrapped context error and never a partial factorization, while the
// engine keeps serving other requests.
func ExampleEngine_LUCtx() {
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 2})
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client has already gone away

	_, err := eng.LUCtx(ctx, factor.Random(500, 100, 7), factor.Options{})
	fmt.Println("cancelled:", errors.Is(err, context.Canceled))

	// The engine is unaffected: the next request factors normally.
	lu, err := eng.LUCtx(context.Background(), factor.Random(500, 100, 8), factor.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("next request factored:", lu.Factors().Rows, "x", lu.Factors().Cols)
	// Output:
	// cancelled: true
	// next request factored: 500 x 100
}

// ExampleEngine_CloseWithTimeout bounds service shutdown: stop waiting for
// stragglers after the grace period and cancel whatever is still queued.
func ExampleEngine_CloseWithTimeout() {
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 2})
	if _, err := eng.LUCtx(context.Background(), factor.Random(200, 80, 9), factor.Options{}); err != nil {
		panic(err)
	}
	// Nothing in flight, so the close drains cleanly within the budget.
	err := eng.CloseWithTimeout(5 * time.Second)
	fmt.Println("clean shutdown:", err == nil)
	// Output: clean shutdown: true
}

// ExampleOptions shows the paper's tuning knobs.
func ExampleOptions() {
	a := factor.Random(1000, 50, 7) // tall and skinny
	opt := factor.Options{
		BlockSize:    50,            // panel width b
		PanelThreads: 4,             // Tr block rows in the tournament
		Tree:         factor.Binary, // reduction tree shape
		Workers:      4,             // scheduler goroutines
	}
	lu, err := factor.LU(a, opt)
	if err != nil {
		panic(err)
	}
	fmt.Println("factored:", lu.Factors().Rows, "x", lu.Factors().Cols)
	// Output: factored: 1000 x 50
}
