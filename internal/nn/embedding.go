package nn

import (
	"fmt"
	"math/rand"

	"setlearn/internal/ad"
)

// Embedding maps integer ids to dense vectors via a shared table — the
// element representation of the DeepSets architecture (§3.2).
type Embedding struct {
	Table *Param
}

// NewEmbedding allocates a vocab×dim table initialized U(-0.05, 0.05).
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Table: NewParam(name+".E", vocab, dim)}
	e.Table.UniformInit(rng, 0.05)
	return e
}

// Vocab returns the number of rows in the table.
func (e *Embedding) Vocab() int { return e.Table.Value.Rows }

// Apply records a lookup of id on the tape.
func (e *Embedding) Apply(t *ad.Tape, id int) *ad.Node {
	if id < 0 || id >= e.Vocab() {
		panic(fmt.Sprintf("nn: embedding id %d out of vocabulary [0,%d)", id, e.Vocab()))
	}
	return t.Lookup(e.Table.Value, e.Table.Grad, id)
}

// Row returns the embedding vector for id without recording on a tape.
func (e *Embedding) Row(id int) []float64 {
	if id < 0 || id >= e.Vocab() {
		panic(fmt.Sprintf("nn: embedding id %d out of vocabulary [0,%d)", id, e.Vocab()))
	}
	return e.Table.Value.Row(id)
}

// Params returns the table as the sole trainable parameter.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }
