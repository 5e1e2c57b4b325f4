// Package matrix provides the dense column-major matrix type used by every
// numerical kernel in this repository, together with views, copies, norms
// and comparison helpers.
//
// Storage follows the LAPACK convention: a matrix with r rows and c columns
// is stored in a []float64 where element (i, j) lives at Data[j*Stride+i]
// and Stride >= r is the leading dimension. Column-major storage keeps the
// panels factored by TSLU/TSQR contiguous in memory, which is the layout the
// communication-avoiding algorithms in the paper are designed around.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a column-major matrix of float64 values.
//
// A Dense may be a view into a larger matrix: mutating a view mutates the
// parent. The zero value is an empty (0x0) matrix.
type Dense struct {
	// Rows and Cols are the dimensions of the matrix.
	Rows, Cols int
	// Stride is the leading dimension: the offset in Data between
	// horizontally adjacent elements (i, j) and (i, j+1).
	Stride int
	// Data holds the elements; element (i, j) is Data[j*Stride+i].
	Data []float64
}

// New allocates a zeroed r x c matrix with a tight leading dimension.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	stride := r
	if stride == 0 {
		stride = 1
	}
	return &Dense{Rows: r, Cols: c, Stride: stride, Data: make([]float64, stride*c)}
}

// FromColMajor wraps an existing column-major slice without copying.
// The slice must hold at least stride*(c-1)+r elements.
func FromColMajor(r, c, stride int, data []float64) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	if stride < r || (stride < 1 && c > 0) {
		panic(fmt.Sprintf("matrix: stride %d < rows %d", stride, r))
	}
	// len(data) >= stride*(c-1)+r, rearranged so the product cannot overflow.
	if c > 0 && (len(data) < r || (len(data)-r)/stride < c-1) {
		panic(fmt.Sprintf("matrix: data length %d too short for %dx%d stride %d", len(data), r, c, stride))
	}
	return &Dense{Rows: r, Cols: c, Stride: stride, Data: data}
}

// FromRows builds a matrix from row slices (convenient in tests and
// examples). All rows must have equal length.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged row %d: got %d want %d", i, len(row), c))
		}
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j). Bounds are checked.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[j*m.Stride+i]
}

// Set assigns element (i, j). Bounds are checked.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[j*m.Stride+i] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Col returns the contiguous storage of column j, length Rows.
// Mutating the returned slice mutates the matrix.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: column %d out of range %d", j, m.Cols))
	}
	return m.Data[j*m.Stride : j*m.Stride+m.Rows]
}

// View returns an r x c sub-matrix view rooted at (i, j). The view shares
// storage with m.
func (m *Dense) View(i, j, r, c int) *Dense {
	if r < 0 || c < 0 || i < 0 || j < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("matrix: view (%d,%d,%dx%d) out of range %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Dense{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[j*m.Stride+i:]}
}

// Clone returns a deep copy of m with a tight leading dimension.
func (m *Dense) Clone() *Dense {
	n := New(m.Rows, m.Cols)
	n.CopyFrom(m)
	return n
}

// CopyFrom copies src into m. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: copy dimension mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Col(j), src.Col(j))
	}
}

// Zero sets every element of m to zero.
func (m *Dense) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = v
		}
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	t := New(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := 0; i < m.Rows; i++ {
			t.Set(j, i, col[i])
		}
	}
	return t
}

// SwapRows exchanges rows i1 and i2 across all columns.
func (m *Dense) SwapRows(i1, i2 int) {
	if i1 == i2 {
		return
	}
	if i1 < 0 || i1 >= m.Rows || i2 < 0 || i2 >= m.Rows {
		panic(fmt.Sprintf("matrix: swap rows (%d, %d) out of range %d", i1, i2, m.Rows))
	}
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		col[i1], col[i2] = col[i2], col[i1]
	}
}

// Row copies row i into a new slice.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.Rows))
	}
	row := make([]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		row[j] = m.Data[j*m.Stride+i]
	}
	return row
}

// SetRow overwrites row i with v (len(v) must equal Cols).
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("matrix: SetRow length %d want %d", len(v), m.Cols))
	}
	for j, x := range v {
		m.Set(i, j, x)
	}
}

// Equal reports whether m and n have the same shape and identical elements.
func (m *Dense) Equal(n *Dense) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		a, b := m.Col(j), n.Col(j)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// EqualApprox reports whether m and n have the same shape and elements that
// differ by at most tol in absolute value.
func (m *Dense) EqualApprox(n *Dense, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		a, b := m.Col(j), n.Col(j)
		for i := range a {
			if math.Abs(a[i]-b[i]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns max |m(i,j)|, or 0 for an empty matrix.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
	}
	return max
}

// NormFrobenius returns the Frobenius norm of m, computed with scaling to
// avoid overflow.
func (m *Dense) NormFrobenius() float64 {
	scale, ssq := 0.0, 1.0
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			if v == 0 {
				continue
			}
			a := math.Abs(v)
			if scale < a {
				ssq = 1 + ssq*(scale/a)*(scale/a)
				scale = a
			} else {
				ssq += (a / scale) * (a / scale)
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormOne returns the 1-norm (max column sum of absolute values).
func (m *Dense) NormOne() float64 {
	max := 0.0
	for j := 0; j < m.Cols; j++ {
		sum := 0.0
		for _, v := range m.Col(j) {
			sum += math.Abs(v)
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// NormInf returns the infinity norm (max row sum of absolute values).
func (m *Dense) NormInf() float64 {
	if m.Rows == 0 {
		return 0
	}
	sums := make([]float64, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i, v := range col {
			sums[i] += math.Abs(v)
		}
	}
	max := 0.0
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	return max
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxDim = 12
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d", m.Rows, m.Cols)
	r, c := m.Rows, m.Cols
	er, ec := false, false
	if r > maxDim {
		r, er = maxDim, true
	}
	if c > maxDim {
		c, ec = maxDim, true
	}
	for i := 0; i < r; i++ {
		b.WriteString("\n[")
		for j := 0; j < c; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "% .4g", m.At(i, j))
		}
		if ec {
			b.WriteString(" ...")
		}
		b.WriteString("]")
	}
	if er {
		b.WriteString("\n...")
	}
	return b.String()
}
