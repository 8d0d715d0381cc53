// Package seedmod holds deliberate violations: a loader that sizes an
// allocation by a decoded length (trustlen), a snapshot mutated through a
// helper after it is published (pubfreeze), a published table accumulated
// into through a mat kernel whose body is assembly on amd64 (pubfreeze),
// and a file opened and never closed (deferclose), the bug that escapes
// every test when seeded into the real tree (DESIGN §6). Each offending
// line ends in a "seed:" comment naming its analyzer. TestSeededRegressions runs the
// whole suite over this package and fails unless each is reported at its
// line, so an analyzer's silence on the real tree is trusted only while it
// still rejects its seed.
//
// The package lives under testdata/ so the go toolchain and the lint
// driver's recursive ./... expansion both skip it; only an explicit
// pattern reaches it.
package seedmod

import (
	"encoding/binary"
	"io"
	"os"
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

// Sniff reports whether path starts with a magic, the shape of the CLIs'
// format sniffers with their deferred Close dropped: the file stays open
// for the life of the process, and deferclose must flag the Open.
func Sniff(path string, magic []byte) bool {
	f, err := os.Open(path) // seed: deferclose
	if err != nil {
		return false
	}
	got := make([]byte, len(magic))
	_, err = io.ReadFull(f, got)
	return err == nil && string(got) == string(magic)
}
