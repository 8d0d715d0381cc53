// Package seedmod holds three deliberate violations: a loader that sizes
// an allocation by a decoded length (trustlen), a snapshot mutated through
// a helper after it is published (pubfreeze), and a published table
// accumulated into through a mat kernel whose body is assembly on amd64
// (pubfreeze). Each offending line ends in a "seed:" comment naming its
// analyzer. TestSeededRegressions runs the whole suite over this package
// and fails unless each is reported at its line, proving the summary
// machinery still detects what it exists to detect before its silence on
// the real tree is trusted.
//
// The package lives under testdata/ so the go toolchain and the lint
// driver's recursive ./... expansion both skip it; only an explicit
// pattern reaches it.
package seedmod

import (
	"encoding/binary"
	"io"
	"sync/atomic"

	"setlearn/internal/mat"
)

// LoadCounts pretends to be a loader: it decodes a count and sizes an
// allocation with it, with no bounds check in sight. trustlen must
// report it.
func LoadCounts(r io.Reader) ([]uint64, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	return make([]uint64, n), nil // seed: trustlen
}

type snapshot struct {
	n int
}

var current atomic.Pointer[snapshot]

// PublishThenScrub mutates a snapshot after publishing it: pubfreeze must
// flag the helper call past the Store.
func PublishThenScrub() {
	next := &snapshot{n: 1}
	current.Store(next)
	scrubSnapshot(next) // seed: pubfreeze
}

func scrubSnapshot(s *snapshot) { s.n = 0 }

type table struct {
	rows []float64
}

var cur atomic.Pointer[table]

// PublishThenAccumulate adds x into a table after publishing it. mat.AddTo
// checks lengths and hands the loop to addTo, which has no Go body on
// amd64: pubfreeze must still flag the call past the Store.
func PublishThenAccumulate(x []float64) {
	t := &table{rows: make([]float64, len(x))}
	cur.Store(t)
	mat.AddTo(t.rows, x) // seed: pubfreeze
}
