package pair

// First returns x's first element.
func First(x []float64) float64 { return kernel(x) }
