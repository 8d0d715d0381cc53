package mat

import "testing"

// sinkDot keeps the compiler from discarding Dot's result.
var sinkDot float64

// TestServingKernelsAllocFree pins every kernel on the φ/ρ inference path
// at zero allocations. The predictors' own AllocsPerRun pins reach only
// the kernels their configuration calls, so each kernel is pinned here.
// The 5×7 shape exercises the unrolled loops' tails.
func TestServingKernelsAllocFree(t *testing.T) {
	m := New(5, 7)
	for i := range m.Data {
		m.Data[i] = float64(i%11) - 5
	}
	x, b, dst := make([]float64, 7), make([]float64, 5), make([]float64, 5)
	Fill(x, 0.5)
	Fill(b, -1)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"MatVec", func() { MatVec(dst, m, x) }},
		{"MatVecAcc", func() { MatVecAcc(dst, m, x) }},
		{"MatVecAdd", func() { MatVecAdd(dst, m, x, b) }},
		{"Dot", func() { sinkDot = Dot(x, x) }},
		{"Scale", func() { Scale(dst, 0.5) }},
		{"AddTo", func() { AddTo(dst, b) }},
		{"Fill", func() { Fill(dst, 1) }},
	} {
		if n := testing.AllocsPerRun(100, k.fn); n != 0 {
			t.Errorf("%s allocates %v per call", k.name, n)
		}
	}
}
