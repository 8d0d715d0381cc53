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

// The kernels below check their operands' shapes and hand the loops to
// kernels_amd64.s (packed SSE2) or kernels_generic.go (Go). Both compute
// every output with the same floating-point operations in the same order,
// so results are bit-identical across the two builds.

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols. dst must not alias x.
func MatVec(dst []float64, m *Matrix, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MatVec dims %dx%d with x=%d dst=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	matVec(dst, m.Data[:m.Rows*m.Cols], x, nil)
}

// MatVecAdd computes dst = m*x + b. Each dst[i] is the same sequence of
// operations as dotUnchecked(row i, x) + b[i]: four accumulators over
// columns j ≡ 0..3 mod 4, summed as ((s0+s1)+s2)+s3, then the column tail
// in order, then the bias; the kernels compute two rows per pass over x.
func MatVecAdd(dst []float64, m *Matrix, x, b []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MatVecAdd dims %dx%d with x=%d dst=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	if len(b) != len(dst) {
		panic("mat: MatVecAdd bias length mismatch")
	}
	matVec(dst, m.Data[:m.Rows*m.Cols], x, b)
}

// MatTVecAcc accumulates dst += mᵀ * g, the vector-Jacobian product used in
// backpropagation. g must have length m.Rows, dst length m.Cols. Rows whose
// g entry is zero (NaN is not) are skipped; the others are applied in
// pairs, each dst[j] taking the earlier row's update before the later
// one's, so every dst[j] sees the same additions in the same order as one
// row at a time.
func MatTVecAcc(dst []float64, m *Matrix, g []float64) {
	if len(g) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: MatTVecAcc dims %dx%d with g=%d dst=%d", m.Rows, m.Cols, len(g), len(dst)))
	}
	matTVecAcc(dst, m.Data[:m.Rows*m.Cols], g)
}

// OuterAcc accumulates dst += g ⊗ x (gradient of a matvec with respect to the
// matrix). dst must be len(g) x len(x). Rows whose g entry is zero (NaN is
// not) are skipped.
func OuterAcc(dst *Matrix, g, x []float64) {
	if dst.Rows != len(g) || dst.Cols != len(x) {
		panic(fmt.Sprintf("mat: OuterAcc dims %dx%d with g=%d x=%d", dst.Rows, dst.Cols, len(g), len(x)))
	}
	outerAcc(dst.Data[:dst.Rows*dst.Cols], g, x)
}

// Axpy computes dst += a*x; each dst[i] sees exactly one update,
// dst[i] + a*x[i].
func Axpy(dst []float64, a float64, x []float64) {
	if len(dst) != len(x) {
		panic("mat: Axpy length mismatch")
	}
	axpy(dst, a, x)
}

// AddTo computes dst += x — the pooled-sum inner loop of the φ fast path
// and of every bias gradient.
func AddTo(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mat: AddTo length mismatch")
	}
	addTo(dst, x)
}

// ReLU writes dst[i] = x[i] where x[i] > 0 and +0 elsewhere, so NaN and −0
// map to +0, as the autodiff tape's ReLU node does.
func ReLU(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mat: ReLU length mismatch")
	}
	relu(dst, x)
}

// ReLUBack writes the gradient at a ReLU's input: dst[i] = +0 + g[i] where
// pre[i] > 0, and +0 elsewhere (NaN included) — the tape's zeroed gradient
// after it accumulates g through the open units.
func ReLUBack(dst, g, pre []float64) {
	if len(dst) != len(g) || len(dst) != len(pre) {
		panic("mat: ReLUBack length mismatch")
	}
	reluBack(dst, g, pre)
}

// AdamUpdate applies one Adam step to the weights w from their gradient g,
// updating the moment estimates m and v in place. bc1 and bc2 are the
// step's bias corrections 1−beta1ᵗ and 1−beta2ᵗ. Per element it computes,
// in this order, m = beta1*m + (1−beta1)*g, v = beta2*v + (1−beta2)*g*g
// and w −= lr*(m/bc1) / (sqrt(v/bc2) + eps).
func AdamUpdate(w, g, m, v []float64, beta1, beta2, lr, eps, bc1, bc2 float64) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic("mat: AdamUpdate length mismatch")
	}
	adam(w, g, m, v, beta1, beta2, 1-beta1, 1-beta2, lr, eps, bc1, bc2)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	return dotUnchecked(a, b)
}

// dotUnchecked is the unrolled inner-product kernel behind Dot and the Go
// matVec's odd last row. Four independent accumulators break the loop-carried add
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

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
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
