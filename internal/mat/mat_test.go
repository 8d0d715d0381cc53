package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2)=%v want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatalf("Row view broken: %v", row)
	}
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3")
		}
	}()
	New(0, 3)
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	m := FromSlice(2, 2, d)
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromSlice layout wrong: %v", m.Data)
	}
	d[0] = 9
	if m.At(0, 0) != 9 {
		t.Fatal("FromSlice must wrap, not copy")
	}
}

func TestFromSlicePanicsOnLenMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestMatVec(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	MatVec(dst, m, x)
	if !almostEq(dst[0], -2) || !almostEq(dst[1], -2) {
		t.Fatalf("MatVec got %v", dst)
	}
}

func TestMatVecAdd(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 0, 0, 1})
	dst := make([]float64, 2)
	MatVecAdd(dst, m, []float64{3, 4}, []float64{1, -1})
	if dst[0] != 4 || dst[1] != 3 {
		t.Fatalf("MatVecAdd got %v", dst)
	}
}

func TestMatTVecAcc(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 3)
	MatTVecAcc(dst, m, []float64{1, 1})
	want := []float64{5, 7, 9}
	for i := range want {
		if !almostEq(dst[i], want[i]) {
			t.Fatalf("MatTVecAcc got %v want %v", dst, want)
		}
	}
	// Accumulation semantics: calling again doubles.
	MatTVecAcc(dst, m, []float64{1, 1})
	if !almostEq(dst[0], 10) {
		t.Fatalf("MatTVecAcc must accumulate, got %v", dst)
	}
}

func TestOuterAcc(t *testing.T) {
	d := New(2, 2)
	OuterAcc(d, []float64{1, 2}, []float64{3, 4})
	if d.At(0, 0) != 3 || d.At(0, 1) != 4 || d.At(1, 0) != 6 || d.At(1, 1) != 8 {
		t.Fatalf("OuterAcc got %v", d.Data)
	}
}

func TestAxpyDotScaleFillNorm(t *testing.T) {
	dst := []float64{1, 1}
	Axpy(dst, 2, []float64{1, 2})
	if dst[0] != 3 || dst[1] != 5 {
		t.Fatalf("Axpy got %v", dst)
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	Scale(dst, 0.5)
	if dst[0] != 1.5 || dst[1] != 2.5 {
		t.Fatalf("Scale got %v", dst)
	}
	Fill(dst, 7)
	if dst[0] != 7 || dst[1] != 7 {
		t.Fatalf("Fill got %v", dst)
	}
	if MaxAbs([]float64{-3, 2}) != 3 {
		t.Fatal("MaxAbs wrong")
	}
	if MaxAbs(nil) != 0 {
		t.Fatal("MaxAbs(nil) should be 0")
	}
}

func TestAddTo(t *testing.T) {
	dst := []float64{1, 2}
	AddTo(dst, []float64{3, 4})
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("AddTo got %v", dst)
	}
}

// The unrolled kernels must handle every tail length (0–3 leftover lanes)
// and stay element-wise identical to the naive per-element updates.
func TestUnrolledKernelTails(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 13; n++ {
		x := make([]float64, n)
		base := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			base[i] = rng.NormFloat64()
		}
		axpy := append([]float64(nil), base...)
		Axpy(axpy, 1.5, x)
		add := append([]float64(nil), base...)
		AddTo(add, x)
		var naive float64
		for i := range x {
			if want := base[i] + 1.5*x[i]; axpy[i] != want {
				t.Fatalf("n=%d: Axpy[%d]=%v, want %v", n, i, axpy[i], want)
			}
			if want := base[i] + x[i]; add[i] != want {
				t.Fatalf("n=%d: AddTo[%d]=%v, want %v", n, i, add[i], want)
			}
			naive += x[i] * x[i]
		}
		if got := Dot(x, x); !almostEq(got, naive) {
			t.Fatalf("n=%d: Dot=%v, naive %v", n, got, naive)
		}
	}
}

// Property: MatVec then MatTVecAcc agree with the naive double loop.
func TestMatVecMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		got := make([]float64, rows)
		MatVec(got, m, x)
		for i := 0; i < rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += m.At(i, j) * x[j]
			}
			if math.Abs(got[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: <m x, g> == <x, mᵀ g> (adjoint identity used by backprop).
func TestAdjointIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(6), 1+r.Intn(6)
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		x := make([]float64, cols)
		g := make([]float64, rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range g {
			g[i] = r.NormFloat64()
		}
		mx := make([]float64, rows)
		MatVec(mx, m, x)
		mtg := make([]float64, cols)
		MatTVecAcc(mtg, m, g)
		return math.Abs(Dot(mx, g)-Dot(x, mtg)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// benchShapes are dense-layer shapes the trainers run: the benchmark
// harness's CLSM model (φ and ρ 32 wide, φ input 16) and a √8-scaled shard
// model (11 wide, φ input 8), whose odd row count and short rows reach the
// kernels' tails.
var benchShapes = []struct{ rows, cols int }{{32, 32}, {32, 16}, {11, 8}}

// benchKernel times kernel at every benchShapes entry. x has m.Cols
// entries, g m.Rows, and dst is shaped like m; the kernel may overwrite or
// accumulate into any of them.
func benchKernel(b *testing.B, kernel func(m, dst *Matrix, x, g []float64)) {
	for _, sh := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			m, dst := New(sh.rows, sh.cols), New(sh.rows, sh.cols)
			for i := range m.Data {
				m.Data[i] = float64(i%7) - 3
			}
			x, g := make([]float64, sh.cols), make([]float64, sh.rows)
			Fill(x, 0.5)
			Fill(g, 0.25)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(m, dst, x, g)
			}
		})
	}
}

func BenchmarkMatVec(b *testing.B) {
	benchKernel(b, func(m, _ *Matrix, x, g []float64) { MatVec(g, m, x) })
}

func BenchmarkMatTVecAcc(b *testing.B) {
	benchKernel(b, func(m, _ *Matrix, x, g []float64) { MatTVecAcc(x, m, g) })
}

func BenchmarkOuterAcc(b *testing.B) {
	benchKernel(b, func(_, dst *Matrix, x, g []float64) { OuterAcc(dst, g, x) })
}

// benchModelParams is the parameter count of the trainers' CLSM benchmark
// model (BenchmarkTrainEpoch): two 39×8 sub-embedding tables, φ 32×16 and
// 32×32, ρ 32×32 and 1×32, and their biases.
const benchModelParams = 3313

// benchElementwise times kernel on vectors as long as every benchShapes
// matrix and as the benchmark model's whole parameter set: the lengths the
// Adam update runs at. x holds values of both signs, y is 0.25 and dst and
// z start at zero.
func benchElementwise(b *testing.B, kernel func(dst, x, y, z []float64)) {
	type size struct {
		name string
		n    int
	}
	var sizes []size
	for _, sh := range benchShapes {
		sizes = append(sizes, size{fmt.Sprintf("%dx%d", sh.rows, sh.cols), sh.rows * sh.cols})
	}
	for _, sz := range append(sizes, size{"model", benchModelParams}) {
		b.Run(sz.name, func(b *testing.B) {
			dst, x, y, z := make([]float64, sz.n), make([]float64, sz.n), make([]float64, sz.n), make([]float64, sz.n)
			for i := range x {
				x[i] = float64(i%7) - 3
			}
			Fill(y, 0.25)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(dst, x, y, z)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	benchElementwise(b, func(dst, x, _, _ []float64) { Axpy(dst, 0.5, x) })
}

func BenchmarkAddTo(b *testing.B) {
	benchElementwise(b, func(dst, x, _, _ []float64) { AddTo(dst, x) })
}

func BenchmarkReLU(b *testing.B) {
	benchElementwise(b, func(dst, x, _, _ []float64) { ReLU(dst, x) })
}

func BenchmarkReLUBack(b *testing.B) {
	benchElementwise(b, func(dst, x, g, _ []float64) { ReLUBack(dst, g, x) })
}

// BenchmarkAdamUpdate updates weights dst from the gradient y, with the
// moments in x and z, at a late step's bias corrections. The gradient has
// no zeros: a moment that decays for thousands of steps goes subnormal,
// and subnormal arithmetic would set the time.
func BenchmarkAdamUpdate(b *testing.B) {
	benchElementwise(b, func(w, m, g, v []float64) {
		AdamUpdate(w, g, m, v, 0.9, 0.999, 0.005, 1e-8, 0.99, 0.5)
	})
}
