package mat

import "testing"

// sinkDot keeps the compiler from discarding Dot's result.
var sinkDot float64

// TestServingKernelsAllocFree pins every kernel on the φ/ρ inference path,
// and every kernel of the train step and the Adam update, at zero
// allocations. The predictors' and the stepper's own AllocsPerRun pins
// reach only the kernels their configuration calls, so each kernel is
// pinned here. The 5×7 shape exercises the blocked loops' odd row and
// column tails.
func TestServingKernelsAllocFree(t *testing.T) {
	m := New(5, 7)
	for i := range m.Data {
		m.Data[i] = float64(i%11) - 5
	}
	x, b, dst := make([]float64, 7), make([]float64, 5), make([]float64, 5)
	Fill(x, 0.5)
	Fill(b, -1)
	gx, gw := make([]float64, 7), New(5, 7)
	am, av := New(5, 7), New(5, 7)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"MatVec", func() { MatVec(dst, m, x) }},
		{"MatVecAdd", func() { MatVecAdd(dst, m, x, b) }},
		{"MatTVecAcc", func() { MatTVecAcc(gx, m, b) }},
		{"OuterAcc", func() { OuterAcc(gw, b, x) }},
		{"Dot", func() { sinkDot = Dot(x, x) }},
		{"Scale", func() { Scale(dst, 0.5) }},
		{"Axpy", func() { Axpy(dst, 0.5, b) }},
		{"AddTo", func() { AddTo(dst, b) }},
		{"ReLU", func() { ReLU(dst, b) }},
		{"ReLUBack", func() { ReLUBack(dst, b, dst) }},
		{"AdamUpdate", func() { AdamUpdate(gw.Data, m.Data, am.Data, av.Data, 0.9, 0.999, 0.01, 1e-8, 0.1, 0.001) }},
		{"Fill", func() { Fill(dst, 1) }},
	} {
		if n := testing.AllocsPerRun(100, k.fn); n != 0 {
			t.Errorf("%s allocates %v per call", k.name, n)
		}
	}
}
