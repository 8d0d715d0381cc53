package floateq

// A *32.go file name blesses nothing: float64↔float32 conversions are
// flagged here like anywhere else outside nn/io.go.

func kernelConvert(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v) // want `precision-mixing conversion float32\(v\) outside nn/io.go`
	}
}

func kernelWiden(a float32, b float64) bool {
	v := float64(a) // want `precision-mixing conversion float64\(a\) outside nn/io.go`
	if v == b {     // want `float comparison v == b is not determinism-safe`
		return true
	}
	return false
}
