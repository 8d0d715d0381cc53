package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are the one-output-per-pass loops that
// trained every golden model in the repository, kept verbatim. The blocked
// kernels must reproduce their results bit for bit: same operations per
// output element, in the same order.

func refDot(a, b []float64) float64 {
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

func refMatVec(dst []float64, m *Matrix, x []float64) {
	for i := 0; i < m.Rows; i++ {
		dst[i] = refDot(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

func refMatVecAdd(dst []float64, m *Matrix, x, b []float64) {
	refMatVec(dst, m, x)
	for i := range dst {
		dst[i] += b[i]
	}
}

func refMatTVecAcc(dst []float64, m *Matrix, g []float64) {
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

func refOuterAcc(dst *Matrix, g, x []float64) {
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

// refAxpy and refAddTo are the one-element-per-step loops that the
// unrolled Go Axpy and AddTo were written to match.
func refAxpy(dst []float64, a float64, x []float64) {
	for i := range dst {
		dst[i] += a * x[i]
	}
}

func refAddTo(dst, x []float64) {
	for i := range dst {
		dst[i] += x[i]
	}
}

// refReLU is the ReLU case of deepsets.activate, verbatim.
func refReLU(post, pre []float64) {
	for i, v := range pre {
		if v > 0 {
			post[i] = v
		} else {
			post[i] = 0
		}
	}
}

// refReLUBack is the ReLU case of deepsets.activateBack, which ran on a
// zeroed gz.
func refReLUBack(gz, g, pre []float64) {
	for i, gi := range g {
		if pre[i] > 0 {
			gz[i] += gi
		}
	}
}

// refAdamOpt holds the fields of nn.Adam that its update loop reads.
type refAdamOpt struct {
	LR, Beta1, Beta2, Epsilon float64
}

// refAdam is the update loop of nn.Adam.Step for one parameter, verbatim
// (p.Grad.Data is grad, p.Value.Data is w).
func refAdam(o refAdamOpt, w, grad, m, v []float64, bc1, bc2 float64) {
	for i, g := range grad {
		m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
		v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		w[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Epsilon)
	}
}

// oracleValues draws inputs for the kernel oracle. With specials set, about
// one value in eight is +0, −0, NaN, ±Inf or a subnormal; the rest are
// normal numbers of mixed sign and magnitude, whose sums round differently
// under any reordering.
type oracleValues struct {
	rng      *rand.Rand
	specials bool
}

var oracleSpecials = []float64{
	0, math.Copysign(0, -1), hardwareNaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -3e-310, 2.5e-308,
}

// hardwareNaN returns the NaN the FPU itself produces for ∞ − ∞ (the
// compiler does not fold a NaN-valued constant expression). Using it as
// the input NaN leaves one NaN bit pattern in every computation. With two
// patterns in play — say math.NaN() and a NaN made by ∞·0 — an add of two
// NaNs keeps whichever operand the compiler put in the destination
// register, which Go leaves open and the reference loops do not fix
// either: dotUnchecked adds each accumulator into the product's register,
// dot2 adds the product into the accumulator's.
func hardwareNaN() float64 {
	inf := math.Inf(1)
	return inf - inf
}

func (v oracleValues) next() float64 {
	if v.specials && v.rng.Intn(8) == 0 {
		return oracleSpecials[v.rng.Intn(len(oracleSpecials))]
	}
	return v.rng.NormFloat64() * math.Ldexp(1, v.rng.Intn(21)-10)
}

// vec returns n values starting at a random element offset of 0 or 1 in
// their backing array, so the kernels also meet slices that are not
// 16-byte aligned.
func (v oracleValues) vec(n int) []float64 {
	off := v.rng.Intn(2)
	return v.fill(make([]float64, n+off)[off:])
}

func (v oracleValues) fill(xs []float64) []float64 {
	for i := range xs {
		xs[i] = v.next()
	}
	return xs
}

// gradient draws a g vector whose exact zeros (+0 and −0) sit at positions
// set by pattern: none, every other one, all but the last, runs of three,
// or at random.
func (v oracleValues) gradient(n, pattern int) []float64 {
	g := v.vec(n)
	negZero := math.Copysign(0, -1)
	for i := range g {
		var zero bool
		switch pattern {
		case 1:
			zero = i%2 == 1
		case 2:
			zero = i < n-1
		case 3:
			zero = i%6 < 3
		case 4:
			zero = v.rng.Intn(3) == 0
		}
		if zero {
			g[i] = 0
			if v.rng.Intn(2) == 0 {
				g[i] = negZero
			}
		}
	}
	return g
}

// clone copies xs to a fresh slice at a random element offset.
func (v oracleValues) clone(xs []float64) []float64 {
	off := v.rng.Intn(2)
	return append(make([]float64, off, off+len(xs)), xs...)[off:]
}

// sameBits reports the first index where got and want differ in their bit
// patterns, or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestKernelsMatchReference checks the kernels against the reference
// loops under math.Float64bits: MatVec, MatVecAdd, MatTVecAcc and OuterAcc
// for every shape with rows and cols in 1..40 — every odd-row and
// column-tail branch — and Axpy, AddTo, ReLU, ReLUBack and AdamUpdate for
// every length in 0..40, on finite inputs and on inputs laced with signed
// zeros, NaN, infinities and subnormals. Every vector starts at a random
// element offset, so half of them are not 16-byte aligned.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for rows := 1; rows <= 40; rows++ {
		for cols := 1; cols <= 40; cols++ {
			for _, specials := range []bool{false, true} {
				v := oracleValues{rng: rng, specials: specials}
				m := FromSlice(rows, cols, v.vec(rows*cols))
				x := v.vec(cols)
				b := v.vec(rows)

				got, want := v.vec(rows), make([]float64, rows)
				MatVec(got, m, x)
				refMatVec(want, m, x)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("MatVec %dx%d specials=%v: dst[%d] = %v, reference %v", rows, cols, specials, i, got[i], want[i])
				}
				MatVecAdd(got, m, x, b)
				refMatVecAdd(want, m, x, b)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("MatVecAdd %dx%d specials=%v: dst[%d] = %v, reference %v", rows, cols, specials, i, got[i], want[i])
				}

				for pattern := 0; pattern <= 4; pattern++ {
					g := v.gradient(rows, pattern)
					base := v.vec(cols)
					got := v.clone(base)
					want := v.clone(base)
					MatTVecAcc(got, m, g)
					refMatTVecAcc(want, m, g)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("MatTVecAcc %dx%d specials=%v pattern %d: dst[%d] = %v, reference %v", rows, cols, specials, pattern, i, got[i], want[i])
					}

					acc := FromSlice(rows, cols, v.vec(rows*cols))
					ref := acc.Clone()
					OuterAcc(acc, g, x)
					refOuterAcc(ref, g, x)
					if i := sameBits(acc.Data, ref.Data); i >= 0 {
						t.Fatalf("OuterAcc %dx%d specials=%v pattern %d: dst[%d] = %v, reference %v", rows, cols, specials, pattern, i, acc.Data[i], ref.Data[i])
					}
				}
			}
		}
	}

	opt := refAdamOpt{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	for n := 0; n <= 40; n++ {
		for _, specials := range []bool{false, true} {
			v := oracleValues{rng: rng, specials: specials}
			check := func(kernel string, pattern int, got, want []float64) {
				t.Helper()
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s n=%d specials=%v pattern %d: dst[%d] = %v, reference %v", kernel, n, specials, pattern, i, got[i], want[i])
				}
			}
			x, base := v.vec(n), v.vec(n)

			a := v.next()
			got, want := v.clone(base), v.clone(base)
			Axpy(got, a, x)
			refAxpy(want, a, x)
			check("Axpy", -1, got, want)

			got, want = v.clone(base), v.clone(base)
			AddTo(got, x)
			refAddTo(want, x)
			check("AddTo", -1, got, want)

			// The outputs start out holding garbage: ReLU and ReLUBack
			// write every element rather than accumulate.
			got, want = v.vec(n), make([]float64, n)
			ReLU(got, x)
			refReLU(want, x)
			check("ReLU", -1, got, want)

			for pattern := 0; pattern <= 4; pattern++ {
				g := v.gradient(n, pattern)
				got, want = v.vec(n), make([]float64, n)
				ReLUBack(got, g, x)
				refReLUBack(want, g, x)
				check("ReLUBack", pattern, got, want)

				// Adam at its first step and deep into training, from
				// moments that hold specials too. The second moments are
				// made non-negative by negation, which leaves the one NaN
				// pattern alone where math.Abs would make a second one.
				for _, step := range []float64{1, 2, 1000} {
					bc1 := 1 - math.Pow(opt.Beta1, step)
					bc2 := 1 - math.Pow(opt.Beta2, step)
					w, m, mv := v.vec(n), v.vec(n), v.vec(n)
					for i, x := range mv {
						if x < 0 {
							mv[i] = -x
						}
					}
					gw, gm, gv := v.clone(w), v.clone(m), v.clone(mv)
					AdamUpdate(gw, g, gm, gv, opt.Beta1, opt.Beta2, opt.LR, opt.Epsilon, bc1, bc2)
					refAdam(opt, w, g, m, mv, bc1, bc2)
					check("AdamUpdate m", pattern, gm, m)
					check("AdamUpdate v", pattern, gv, mv)
					check("AdamUpdate w", pattern, gw, w)
				}
			}
		}
	}
}
