package pair

func kernel(x []float64) float64 { return x[0] }
