//go:build amd64 && !race

package mat

// The bodies are packed-SSE2 assembly in kernels_amd64.s; kernels_generic.go
// holds the same loops in Go, built for other architectures and under the
// race detector, which does not see memory accesses made in assembly.

//go:noescape
func matVec(dst, a, x, b []float64)

//go:noescape
func matTVecAcc(dst, a, g []float64)

//go:noescape
func outerAcc(dst, g, x []float64)

//go:noescape
func axpy(dst []float64, a float64, x []float64)

//go:noescape
func addTo(dst, x []float64)

//go:noescape
func relu(dst, x []float64)

//go:noescape
func reluBack(dst, g, pre []float64)

//go:noescape
func adam(w, g, m, v []float64, beta1, beta2, c1, c2, lr, eps, bc1, bc2 float64)
