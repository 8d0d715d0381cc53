package nn

// nn/io.go is the float32 persistence boundary: weights round to float32
// on save and widen back on load, so conversions are allowed here. The
// comparison checks still apply.

func saveWeights(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

func loadWeight(w float32, want float64) bool {
	v := float64(w)
	if v == want { // want `float comparison v == want is not determinism-safe`
		return true
	}
	return false
}
