// Package cli holds the file helpers that the setlearn and setlearnd
// commands share: reading a collection file, telling a sharded container
// from a monolithic structure, and loading either.
package cli

import (
	"io"
	"os"

	"setlearn/internal/sets"
	"setlearn/internal/shard"
)

// ReadCollection reads the collection file at path: one set per line as
// space-separated element ids.
func ReadCollection(path string) (*sets.Collection, error) {
	return Load(path, sets.ReadCollection)
}

// Load opens path and decodes it with load.
func Load[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return load(f)
}

// IsSharded reports whether the file at path holds a sharded container, by
// its magic bytes, so one flag can name either format.
func IsSharded(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	return shard.SniffSharded(f), nil
}

// MB converts a byte count to MiB.
func MB(bytes int) float64 { return float64(bytes) / (1024 * 1024) }
