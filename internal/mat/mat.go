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
	matVec(dst, m, x, nil)
}

// MatVecAdd computes dst = m*x + b.
func MatVecAdd(dst []float64, m *Matrix, x, b []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MatVecAdd dims %dx%d with x=%d dst=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	if len(b) != len(dst) {
		panic("mat: MatVecAdd bias length mismatch")
	}
	matVec(dst, m, x, b)
}

// matVec computes dst = m*x, plus b when b is non-nil, two rows per pass
// over x. Each row keeps dotUnchecked's four accumulators, their sum and
// its tail, and then adds its bias, so every dst[i] is the same sequence of
// operations as dotUnchecked(row i, x) + b[i]; an odd last row runs
// dotUnchecked itself.
func matVec(dst []float64, m *Matrix, x, b []float64) {
	cols := m.Cols
	i := 0
	for ; i+1 < len(dst); i += 2 {
		s, t := dot2(m.Data[i*cols:(i+1)*cols], m.Data[(i+1)*cols:(i+2)*cols], x)
		if b != nil {
			s += b[i]
			t += b[i+1]
		}
		dst[i], dst[i+1] = s, t
	}
	if i < len(dst) {
		s := dotUnchecked(m.Data[i*cols:(i+1)*cols], x)
		if b != nil {
			s += b[i]
		}
		dst[i] = s
	}
}

// dot2 returns r0·x and r1·x, each summed exactly as dotUnchecked sums it.
// r0 and r1 are at least as long as x.
func dot2(r0, r1, x []float64) (float64, float64) {
	r0, r1 = r0[:len(x)], r1[:len(x)]
	var a0, a1, a2, a3, c0, c1, c2, c3 float64
	j := 0
	for ; j+4 <= len(x); j += 4 {
		v, p, q := x[j:j+4:j+4], r0[j:j+4:j+4], r1[j:j+4:j+4]
		a0 += p[0] * v[0]
		a1 += p[1] * v[1]
		a2 += p[2] * v[2]
		a3 += p[3] * v[3]
		c0 += q[0] * v[0]
		c1 += q[1] * v[1]
		c2 += q[2] * v[2]
		c3 += q[3] * v[3]
	}
	s, t := a0+a1+a2+a3, c0+c1+c2+c3
	for ; j < len(x); j++ {
		s += r0[j] * x[j]
		t += r1[j] * x[j]
	}
	return s, t
}

// MatTVecAcc accumulates dst += mᵀ * g, the vector-Jacobian product used in
// backpropagation. g must have length m.Rows, dst length m.Cols. Rows whose
// g entry is zero are skipped; the others are applied in pairs, each
// dst[j] taking the earlier row's update before the later one's, so every
// dst[j] sees the same additions in the same order as one row at a time.
func MatTVecAcc(dst []float64, m *Matrix, g []float64) {
	if len(g) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: MatTVecAcc dims %dx%d with g=%d dst=%d", m.Rows, m.Cols, len(g), len(dst)))
	}
	cols := m.Cols
	var (
		pending bool // r0 waits for a second non-zero row
		g0      float64
		r0      []float64
	)
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		row := m.Data[i*cols : (i+1)*cols]
		if !pending {
			pending, g0, r0 = true, gi, row
			continue
		}
		axpy2(dst, g0, r0, gi, row)
		pending = false
	}
	if pending {
		Axpy(dst, g0, r0)
	}
}

// axpy2 computes dst[j] += a*x[j] and then dst[j] += b*y[j] for every j in
// one pass, four columns per step. x and y are at least as long as dst.
func axpy2(dst []float64, a float64, x []float64, b float64, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		d, v, w := dst[j:j+4:j+4], x[j:j+4:j+4], y[j:j+4:j+4]
		d[0] = d[0] + a*v[0] + b*w[0]
		d[1] = d[1] + a*v[1] + b*w[1]
		d[2] = d[2] + a*v[2] + b*w[2]
		d[3] = d[3] + a*v[3] + b*w[3]
	}
	for ; j < len(dst); j++ {
		dst[j] = dst[j] + a*x[j] + b*y[j]
	}
}

// OuterAcc accumulates dst += g ⊗ x (gradient of a matvec with respect to the
// matrix). dst must be len(g) x len(x). Rows whose g entry is zero are
// skipped.
func OuterAcc(dst *Matrix, g, x []float64) {
	if dst.Rows != len(g) || dst.Cols != len(x) {
		panic(fmt.Sprintf("mat: OuterAcc dims %dx%d with g=%d x=%d", dst.Rows, dst.Cols, len(g), len(x)))
	}
	cols := len(x)
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		row := dst.Data[i*cols:][:cols]
		j := 0
		for ; j+4 <= cols; j += 4 {
			r, v := row[j:j+4:j+4], x[j:j+4:j+4]
			r[0] += gi * v[0]
			r[1] += gi * v[1]
			r[2] += gi * v[2]
			r[3] += gi * v[3]
		}
		for ; j < cols; j++ {
			row[j] += gi * x[j]
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

// dotUnchecked is the unrolled inner-product kernel behind Dot and MatVec's
// odd last row. Four independent accumulators break the loop-carried add
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
