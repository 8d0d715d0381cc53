// Package nn builds neural-network components on top of the ad autodiff
// engine: dense layers, MLPs, embedding tables, LSTM/GRU cells, the Adam
// optimizer, losses, weight initialization, and model serialization. It is
// the training substrate for every learned structure in this repository.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"setlearn/internal/mat"
)

// Param is a trainable tensor with its gradient accumulator. Vectors are
// represented as 1×n matrices.
type Param struct {
	Name  string
	Value *mat.Matrix
	Grad  *mat.Matrix
}

// NewParam allocates a zeroed rows×cols parameter.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Value: mat.New(rows, cols), Grad: mat.New(rows, cols)}
}

// Size returns the number of scalar values in the parameter.
func (p *Param) Size() int { return len(p.Value.Data) }

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Vec returns the parameter's backing data when it is a vector (1×n).
func (p *Param) Vec() []float64 {
	if p.Value.Rows != 1 {
		panic(fmt.Sprintf("nn: param %s is %dx%d, not a vector", p.Name, p.Value.Rows, p.Value.Cols))
	}
	return p.Value.Data
}

// GradVec returns the gradient data for a vector parameter.
func (p *Param) GradVec() []float64 {
	if p.Grad.Rows != 1 {
		panic(fmt.Sprintf("nn: param %s is %dx%d, not a vector", p.Name, p.Grad.Rows, p.Grad.Cols))
	}
	return p.Grad.Data
}

// GlorotInit fills p with the Glorot/Xavier uniform distribution
// U(-√(6/(fanIn+fanOut)), +√(6/(fanIn+fanOut))).
func (p *Param) GlorotInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range p.Value.Data {
		p.Value.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// UniformInit fills p with U(-limit, +limit).
func (p *Param) UniformInit(rng *rand.Rand, limit float64) {
	for i := range p.Value.Data {
		p.Value.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// NumParams sums the scalar counts of all params.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Size()
	}
	return n
}

// SizeBytes reports the serialized size of the parameters at float32
// precision, matching how models are persisted and how the paper accounts
// for model memory.
func SizeBytes(params []*Param) int { return 4 * NumParams(params) }
