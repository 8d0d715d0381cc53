//go:build !amd64 || race

package mat

import "math"

// The Go bodies of the kernels kernels_amd64.s implements, built for
// other architectures and under the race detector, which does not see
// memory accesses made in assembly. TestKernelsMatchReference holds both
// builds to the reference loops in oracle_test.go, bit for bit.

// matVec computes dst = a*x, plus b when len(b) > 0, over a's len(dst)
// rows of len(x), two rows per pass over x. Each row keeps dotUnchecked's
// four accumulators, their sum and its tail, and then adds its bias, so
// every dst[i] is the same sequence of operations as dotUnchecked(row i,
// x) + b[i]; an odd last row runs dotUnchecked itself.
func matVec(dst, a, x, b []float64) {
	cols := len(x)
	i := 0
	for ; i+1 < len(dst); i += 2 {
		s, t := dot2(a[i*cols:(i+1)*cols], a[(i+1)*cols:(i+2)*cols], x)
		if len(b) > 0 {
			s += b[i]
			t += b[i+1]
		}
		dst[i], dst[i+1] = s, t
	}
	if i < len(dst) {
		s := dotUnchecked(a[i*cols:(i+1)*cols], x)
		if len(b) > 0 {
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

// matTVecAcc accumulates dst += aᵀ * g over a's len(g) rows of len(dst).
// Rows whose g entry is zero are skipped; the others are applied in pairs,
// each dst[j] taking the earlier row's update before the later one's, so
// every dst[j] sees the same additions in the same order as one row at a
// time.
func matTVecAcc(dst, a, g []float64) {
	cols := len(dst)
	var (
		pending bool // r0 waits for a second non-zero row
		g0      float64
		r0      []float64
	)
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		row := a[i*cols : (i+1)*cols]
		if !pending {
			pending, g0, r0 = true, gi, row
			continue
		}
		axpy2(dst, g0, r0, gi, row)
		pending = false
	}
	if pending {
		axpy(dst, g0, r0)
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

// outerAcc accumulates dst += g ⊗ x, dst holding len(g) rows of len(x).
// Rows whose g entry is zero are skipped.
func outerAcc(dst, g, x []float64) {
	cols := len(x)
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		row := dst[i*cols:][:cols]
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

// axpy computes dst += a*x, 4-way unrolled; each dst[i] sees exactly one
// update, so results are bit-identical to the naive loop. x is at least as
// long as dst.
func axpy(dst []float64, a float64, x []float64) {
	x = x[:len(dst)]
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

// addTo computes dst += x, unrolled like axpy.
func addTo(dst, x []float64) {
	x = x[:len(dst)]
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

// relu writes x[i] where x[i] > 0 and +0 elsewhere, NaN included.
func relu(dst, x []float64) {
	x = x[:len(dst)]
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// reluBack writes +0 + g[i] where pre[i] > 0 and +0 elsewhere: a zeroed
// gradient that accumulates g through the open units.
func reluBack(dst, g, pre []float64) {
	g, pre = g[:len(dst)], pre[:len(dst)]
	for i, gi := range g {
		dst[i] = 0
		if pre[i] > 0 {
			dst[i] += gi
		}
	}
}

// adam applies one Adam update to w from gradient g and the moment
// estimates m and v; c1 and c2 are 1−beta1 and 1−beta2, bc1 and bc2 the
// bias corrections.
func adam(w, g, m, v []float64, beta1, beta2, c1, c2, lr, eps, bc1, bc2 float64) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i, gi := range g {
		m[i] = beta1*m[i] + c1*gi
		v[i] = beta2*v[i] + c2*gi*gi
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		w[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}
