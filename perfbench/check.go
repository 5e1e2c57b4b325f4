package main

import (
	"fmt"
	"math"

	"repro/factor"
)

// Correctness checks run outside every timed interval. Each estimates a
// normwise backward error in the Frobenius norm from Gaussian probe
// vectors: for x with independent N(0,1) entries, E||Ex||^2 = ||E||_F^2, so
// the root mean square of ||Ex|| over the probes estimates ||E||_F at O(mn)
// cost instead of the O(mn^2) of forming E. A wrong factor entry shows in
// every probe.

// probes is the number of probe vectors per check.
const probes = 2

// checkTol bounds every scaled residual; a result above it is wrong.
// Correct factorizations of the benchmark's random inputs score below 2
// (the orthogonality of a 100000-row Q scores highest).
const checkTol = 16

const eps = 0x1p-52

// residual is one scaled backward-error estimate.
type residual struct {
	Name  string
	Value float64
}

func (r residual) ok() bool { return r.Value <= checkTol } // false for NaN

// checkAll returns an error naming the first residual over checkTol.
func checkAll(rs ...residual) error {
	for _, r := range rs {
		if !r.ok() {
			return fmt.Errorf("check %s = %.3g exceeds %d", r.Name, r.Value, checkTol)
		}
	}
	return nil
}

// matVec returns a*x for an m x n column-major matrix.
func matVec(a *factor.Matrix, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		for i, v := range a.Col(j) {
			y[i] += v * xj
		}
	}
	return y
}

// matTVec returns a^T*y.
func matTVec(a *factor.Matrix, y []float64) []float64 {
	x := make([]float64, a.Cols)
	for j := range x {
		var s float64
		for i, v := range a.Col(j) {
			s += v * y[i]
		}
		x[j] = s
	}
	return x
}

// upperVec returns U*x for the upper triangle of the leading n x n block.
func upperVec(f *factor.Matrix, x []float64) []float64 {
	n := f.Cols
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		col := f.Col(j)
		for i := 0; i <= j; i++ {
			y[i] += col[i] * x[j]
		}
	}
	return y
}

// upperTVec returns U^T*y for the upper triangle of the leading n x n block.
func upperTVec(f *factor.Matrix, y []float64) []float64 {
	n := f.Cols
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		col := f.Col(j)
		var s float64
		for i := 0; i <= j; i++ {
			s += col[i] * y[i]
		}
		x[j] = s
	}
	return x
}

// checkLU estimates ||PA - LU||_F / (n eps ||A||_F). f holds L (unit
// lower, below the diagonal) and U (on and above) packed, m x n; row i of
// PA is row perm[i] of a.
func checkLU(a, f *factor.Matrix, perm []int, seed int64, index uint64) residual {
	m, n := a.Rows, a.Cols
	if f.Rows != m || f.Cols != n || len(perm) != m {
		return residual{"lu_shape", math.Inf(1)}
	}
	var sum float64
	for k := 0; k < probes; k++ {
		x := probe(n, seed, index, k)
		ax := matVec(a, x)
		y := upperVec(f, x)
		z := make([]float64, m)
		for j := 0; j < n; j++ {
			z[j] += y[j]
			yj := y[j]
			col := f.Col(j)
			for i := j + 1; i < m; i++ {
				z[i] += col[i] * yj
			}
		}
		for i := range z {
			p := perm[i]
			if p < 0 || p >= m {
				return residual{"lu_perm", math.Inf(1)}
			}
			d := ax[p] - z[i]
			sum += d * d
		}
	}
	return residual{"lu_backward", math.Sqrt(sum/probes) / (float64(n) * eps * a.NormFrobenius())}
}

// qrFactors is a QR factorization with R and the implicit Q, as both
// factor.QRFactorization and core.QRResult provide.
type qrFactors interface {
	R() *factor.Matrix
	ApplyQ(c *factor.Matrix)
	ApplyQT(c *factor.Matrix)
}

// checkQR estimates ||A - QR||_F / (n eps ||A||_F) and
// ||Q^T Q - I||_F / (n eps) for the thin Q held implicitly by q.
func checkQR(a *factor.Matrix, q qrFactors, seed int64, index uint64) (back, orth residual) {
	m, n := a.Rows, a.Cols
	r := q.R()
	var sb, so float64
	c := factor.NewMatrix(m, 1)
	for k := 0; k < probes; k++ {
		x := probe(n, seed, index, k)
		ax := matVec(a, x)
		rx := upperVec(r, x)
		col := c.Col(0)
		clear(col)
		copy(col, rx)
		q.ApplyQ(c)
		for i, v := range col {
			d := ax[i] - v
			sb += d * d
		}
		clear(col)
		copy(col, x)
		q.ApplyQ(c)
		q.ApplyQT(c)
		for i := 0; i < n; i++ {
			d := col[i] - x[i]
			so += d * d
		}
	}
	nf := float64(n)
	back = residual{"qr_backward", math.Sqrt(sb/probes) / (nf * eps * a.NormFrobenius())}
	orth = residual{"qr_orthogonality", math.Sqrt(so/probes) / (nf * eps)}
	return back, orth
}

// checkGram estimates ||A^T A - R^T R||_F / (n eps ||A||_F^2) from R alone,
// the check for a QR response that carries no Q.
func checkGram(a, r *factor.Matrix, seed int64, index uint64) residual {
	n := a.Cols
	if r.Rows != n || r.Cols != n {
		return residual{"qr_shape", math.Inf(1)}
	}
	var sum float64
	for k := 0; k < probes; k++ {
		x := probe(n, seed, index, k)
		u := matTVec(a, matVec(a, x))
		v := upperTVec(r, upperVec(r, x))
		for i := range u {
			d := u[i] - v[i]
			sum += d * d
		}
	}
	fa := a.NormFrobenius()
	return residual{"qr_gram", math.Sqrt(sum/probes) / (float64(n) * eps * fa * fa)}
}
