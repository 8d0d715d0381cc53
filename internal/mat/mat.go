// Package mat provides the small dense linear-algebra kernels used by the
// neural-network substrate. Matrices are row-major float64; all kernels are
// allocation-free when the caller supplies destination slices.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows x Cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols. dst must not alias x.
func MatVec(dst []float64, m *Matrix, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MatVec dims %dx%d with x=%d dst=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = dotUnchecked(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

// MatVecAcc accumulates dst += m * x — the gemv-style variant the fused
// inference path uses to fold matvec results into pooled scratch without a
// temporary. dst must have length m.Rows and x length m.Cols; dst must not
// alias x.
func MatVecAcc(dst []float64, m *Matrix, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MatVecAcc dims %dx%d with x=%d dst=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] += dotUnchecked(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

// MatVecAdd computes dst = m*x + b.
func MatVecAdd(dst []float64, m *Matrix, x, b []float64) {
	MatVec(dst, m, x)
	if len(b) != len(dst) {
		panic("mat: MatVecAdd bias length mismatch")
	}
	for i := range dst {
		dst[i] += b[i]
	}
}

// MatTVecAcc accumulates dst += mᵀ * g, the vector-Jacobian product used in
// backpropagation. g must have length m.Rows, dst length m.Cols.
func MatTVecAcc(dst []float64, m *Matrix, g []float64) {
	if len(g) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: MatTVecAcc dims %dx%d with g=%d dst=%d", m.Rows, m.Cols, len(g), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		gi := g[i]
		if gi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += gi * w
		}
	}
}

// OuterAcc accumulates dst += g ⊗ x (gradient of a matvec with respect to the
// matrix). dst must be len(g) x len(x).
func OuterAcc(dst *Matrix, g, x []float64) {
	if dst.Rows != len(g) || dst.Cols != len(x) {
		panic(fmt.Sprintf("mat: OuterAcc dims %dx%d with g=%d x=%d", dst.Rows, dst.Cols, len(g), len(x)))
	}
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		row := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j, xj := range x {
			row[j] += gi * xj
		}
	}
}

// Axpy computes dst += a*x. The loop is 4-way unrolled; each dst[i] sees
// exactly one fused update, so results are bit-identical to the naive loop.
func Axpy(dst []float64, a float64, x []float64) {
	if len(dst) != len(x) {
		panic("mat: Axpy length mismatch")
	}
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += a * x[i]
		dst[i+1] += a * x[i+1]
		dst[i+2] += a * x[i+2]
		dst[i+3] += a * x[i+3]
	}
	for i := n; i < len(x); i++ {
		dst[i] += a * x[i]
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	return dotUnchecked(a, b)
}

// dotUnchecked is the unrolled inner-product kernel behind Dot, MatVec, and
// MatVecAcc. Four independent accumulators break the loop-carried add
// dependency; deterministic for fixed input, so every inference path that
// shares it produces bit-identical results.
func dotUnchecked(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Scale multiplies every element of x by a in place.
func Scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

// AddTo computes dst += x — the pooled-sum inner loop of the φ fast path,
// unrolled like Axpy and bit-identical to it with a = 1.
func AddTo(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mat: AddTo length mismatch")
	}
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += x[i]
		dst[i+1] += x[i+1]
		dst[i+2] += x[i+2]
		dst[i+3] += x[i+3]
	}
	for i := n; i < len(x); i++ {
		dst[i] += x[i]
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// ApproxEqual reports whether a and b agree within absolute tolerance
// tol. It is the approved way to compare floats in the numeric packages:
// the floateq analyzer flags raw ==/!= there. Exact equality short-circuits
// so infinities of the same sign compare equal; NaN never compares equal
// to anything, matching IEEE semantics.
func ApproxEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

// WithinTol reports whether a and b agree within tol scaled by the larger
// magnitude (but never below tol itself) — a combined absolute/relative
// comparison for values whose scale is not known a priori.
func WithinTol(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := 1.0
	if aa := math.Abs(a); aa > scale {
		scale = aa
	}
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= tol*scale
}

// MaxAbs returns the largest absolute element of x, or 0 for empty x.
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
