package matrix

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	m := New(3, 5)
	if m.Rows != 3 || m.Cols != 5 || m.Stride != 3 {
		t.Fatalf("got %dx%d stride %d", m.Rows, m.Cols, m.Stride)
	}
	for j := 0; j < 5; j++ {
		for i := 0; i < 3; i++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestNewEmpty(t *testing.T) {
	m := New(0, 0)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("got %dx%d", m.Rows, m.Cols)
	}
	if m.NormFrobenius() != 0 || m.MaxAbs() != 0 || m.NormInf() != 0 || m.NormOne() != 0 {
		t.Fatal("norms of empty matrix should be 0")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestSetAt(t *testing.T) {
	m := New(4, 3)
	m.Set(2, 1, 7.5)
	if got := m.At(2, 1); got != 7.5 {
		t.Fatalf("got %v", got)
	}
	// Column-major layout: element (2,1) is at Data[1*4+2].
	if m.Data[6] != 7.5 {
		t.Fatalf("storage not column-major: %v", m.Data)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", idx)
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("got %dx%d", m.Rows, m.Cols)
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 || m.At(0, 2) != 3 {
		t.Fatalf("wrong contents: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromColMajor(t *testing.T) {
	data := []float64{1, 2, 99, 3, 4, 99}
	m := FromColMajor(2, 2, 3, data)
	if m.At(0, 0) != 1 || m.At(1, 0) != 2 || m.At(0, 1) != 3 || m.At(1, 1) != 4 {
		t.Fatalf("wrong view: %v", m)
	}
	m.Set(1, 1, -4)
	if data[4] != -4 {
		t.Fatal("view did not alias underlying data")
	}
}

func TestFromColMajorShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromColMajor(3, 2, 3, make([]float64, 5))
}

// TestFromColMajorOverflowPanics uses dimensions whose stride*(c-1)+r
// wraps to zero in int arithmetic: the length check must still fire.
func TestFromColMajorOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	const big = 1 << (bits.UintSize / 2)
	FromColMajor(big, big, big, nil)
}

func TestViewAliases(t *testing.T) {
	m := FromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	})
	v := m.View(1, 1, 2, 2)
	if v.At(0, 0) != 6 || v.At(1, 1) != 11 {
		t.Fatalf("wrong view contents: %v", v)
	}
	v.Set(0, 1, 70)
	if m.At(1, 2) != 70 {
		t.Fatal("view write did not reach parent")
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	m := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.View(1, 1, 3, 2)
}

func TestCloneIndependent(t *testing.T) {
	m := Random(5, 4, 1)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone differs")
	}
	c.Set(0, 0, 1234)
	if m.At(0, 0) == 1234 {
		t.Fatal("clone aliases original")
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).CopyFrom(New(3, 2))
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("got %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSwapRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	m.SwapRows(0, 2)
	want := FromRows([][]float64{{5, 6}, {3, 4}, {1, 2}})
	if !m.Equal(want) {
		t.Fatalf("got %v", m)
	}
	m.SwapRows(1, 1) // no-op
	if !m.Equal(want) {
		t.Fatal("self-swap changed matrix")
	}
}

func TestRowSetRow(t *testing.T) {
	m := New(3, 3)
	m.SetRow(1, []float64{7, 8, 9})
	got := m.Row(1)
	for j, want := range []float64{7, 8, 9} {
		if got[j] != want {
			t.Fatalf("row = %v", got)
		}
	}
}

func TestColAliases(t *testing.T) {
	m := New(3, 2)
	col := m.Col(1)
	col[2] = 42
	if m.At(2, 1) != 42 {
		t.Fatal("Col does not alias storage")
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {-3, 4}})
	if got := m.NormOne(); got != 6 {
		t.Fatalf("NormOne = %v", got)
	}
	if got := m.NormInf(); got != 7 {
		t.Fatalf("NormInf = %v", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v", got)
	}
	want := math.Sqrt(1 + 4 + 9 + 16)
	if got := m.NormFrobenius(); math.Abs(got-want) > 1e-14 {
		t.Fatalf("NormFrobenius = %v want %v", got, want)
	}
}

func TestNormFrobeniusScaling(t *testing.T) {
	// Entries near overflow must not overflow the norm computation.
	m := New(2, 1)
	m.Set(0, 0, 1e300)
	m.Set(1, 0, 1e300)
	want := 1e300 * math.Sqrt(2)
	if got := m.NormFrobenius(); math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("NormFrobenius = %v want %v", got, want)
	}
}

func TestEqualApprox(t *testing.T) {
	a := Random(4, 4, 2)
	b := a.Clone()
	b.Set(3, 3, b.At(3, 3)+1e-12)
	if !a.EqualApprox(b, 1e-10) {
		t.Fatal("should be approx equal")
	}
	if a.EqualApprox(b, 1e-14) {
		t.Fatal("should not be equal at tight tol")
	}
	if a.EqualApprox(New(4, 3), 1) {
		t.Fatal("shape mismatch should not be equal")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(6, 5, 42)
	b := Random(6, 5, 42)
	if !a.Equal(b) {
		t.Fatal("same seed must give same matrix")
	}
	c := Random(6, 5, 43)
	if a.Equal(c) {
		t.Fatal("different seeds gave identical matrix")
	}
}

func TestDiagonallyDominant(t *testing.T) {
	m := DiagonallyDominant(20, 7)
	for i := 0; i < 20; i++ {
		off := 0.0
		for j := 0; j < 20; j++ {
			if i != j {
				off += math.Abs(m.At(i, j))
			}
		}
		if math.Abs(m.At(i, i)) <= off {
			t.Fatalf("row %d not dominant", i)
		}
	}
}

func TestWilkinson(t *testing.T) {
	m := Wilkinson(4)
	want := FromRows([][]float64{
		{1, 0, 0, 1},
		{-1, 1, 0, 1},
		{-1, -1, 1, 1},
		{-1, -1, -1, 1},
	})
	if !m.Equal(want) {
		t.Fatalf("got %v", m)
	}
}

func TestGraded(t *testing.T) {
	m := Graded(5, 3, 10, 3)
	// Later rows should be much larger in magnitude.
	first, last := 0.0, 0.0
	for j := 0; j < 3; j++ {
		first += math.Abs(m.At(0, j))
		last += math.Abs(m.At(4, j))
	}
	if last < 100*first {
		t.Fatalf("grading not applied: first %v last %v", first, last)
	}
}

func TestNearSingularShape(t *testing.T) {
	m := NearSingular(10, 4, 1e-10, 5)
	if m.Rows != 10 || m.Cols != 4 {
		t.Fatalf("got %dx%d", m.Rows, m.Cols)
	}
	one := NearSingular(5, 1, 1e-10, 5)
	if one.Cols != 1 {
		t.Fatal("single-column fallback broken")
	}
}

func TestOrthogonalishColumnsUnitNorm(t *testing.T) {
	m := Orthogonalish(50, 5, 9)
	for j := 0; j < 5; j++ {
		s := 0.0
		for _, v := range m.Col(j) {
			s += v * v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("column %d norm^2 = %v", j, s)
		}
	}
}

func TestStringElides(t *testing.T) {
	small := Identity(2).String()
	if small == "" {
		t.Fatal("empty string")
	}
	big := New(100, 100).String()
	if len(big) > 20000 {
		t.Fatalf("String did not elide: %d bytes", len(big))
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := int(seed%7)*3 + 1
		c := int(seed%5)*2 + 1
		if r < 0 {
			r = -r + 1
		}
		if c < 0 {
			c = -c + 1
		}
		m := Random(r, c, seed)
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: norms satisfy maxAbs <= frobenius and triangle-style bounds.
func TestNormOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := Random(8, 6, seed)
		maxAbs := m.MaxAbs()
		fro := m.NormFrobenius()
		one := m.NormOne()
		inf := m.NormInf()
		return maxAbs <= fro+1e-12 && maxAbs <= one+1e-12 && maxAbs <= inf+1e-12 &&
			fro <= math.Sqrt(float64(m.Rows*m.Cols))*maxAbs+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SwapRows twice restores the matrix.
func TestSwapRowsInvolutionProperty(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		m := Random(10, 4, seed)
		orig := m.Clone()
		i1, i2 := int(a)%10, int(b)%10
		m.SwapRows(i1, i2)
		m.SwapRows(i1, i2)
		return m.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKahan(t *testing.T) {
	k := Kahan(5, 1.2)
	// Upper triangular with positive decreasing diagonal.
	for i := 0; i < 5; i++ {
		for j := 0; j < i; j++ {
			if k.At(i, j) != 0 {
				t.Fatalf("Kahan not upper triangular at (%d,%d)", i, j)
			}
		}
		if k.At(i, i) <= 0 {
			t.Fatalf("Kahan diagonal %v at %d", k.At(i, i), i)
		}
		if i > 0 && k.At(i, i) >= k.At(i-1, i-1) {
			t.Fatal("Kahan diagonal not decreasing")
		}
	}
	// Off-diagonal entries are negative (for theta in (0, pi/2)).
	if k.At(0, 1) >= 0 {
		t.Fatalf("Kahan off-diagonal %v", k.At(0, 1))
	}
}

func TestHilbert(t *testing.T) {
	h := Hilbert(4)
	if h.At(0, 0) != 1 || h.At(1, 2) != 1.0/4 || h.At(3, 3) != 1.0/7 {
		t.Fatalf("Hilbert entries wrong: %v", h)
	}
	// Symmetric.
	if !h.Equal(h.Transpose()) {
		t.Fatal("Hilbert not symmetric")
	}
}
