// Package seedmod holds two deliberate violations: a loader that sizes an
// allocation by a decoded length (trustlen) and a snapshot mutated through
// a helper after it is published (pubfreeze). TestSeededRegressions runs
// the whole suite over this package and fails unless both are reported,
// proving the summary machinery still detects what it exists to detect
// before its silence on the real tree is trusted.
//
// The package lives under testdata/ so the go toolchain and the lint
// driver's recursive ./... expansion both skip it; only an explicit
// pattern reaches it.
package seedmod

import (
	"encoding/binary"
	"io"
	"sync/atomic"
)

// LoadCounts pretends to be a loader: it decodes a count and sizes an
// allocation with it, with no bounds check in sight. trustlen must
// report it.
func LoadCounts(r io.Reader) ([]uint64, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	return make([]uint64, n), nil
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
	scrubSnapshot(next)
}

func scrubSnapshot(s *snapshot) { s.n = 0 }
