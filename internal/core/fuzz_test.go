package core

import (
	"bytes"
	"sync"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// fuzzCorpus holds one tiny trained structure of each kind, serialized, plus
// the collection the index needs at load time. Built once per process
// (training is the expensive part, loading is what's under test).
type fuzzCorpus struct {
	c      *sets.Collection
	index  []byte
	card   []byte
	member []byte
}

var (
	corpusOnce sync.Once
	corpus     *fuzzCorpus
	corpusErr  error
)

func tinyModel() ModelOptions {
	return ModelOptions{
		EmbedDim: 2, PhiHidden: []int{4}, PhiOut: 4, RhoHidden: []int{4},
		Epochs: 1, LR: 0.01, Workers: 1, Seed: 5,
	}
}

func buildFuzzCorpus(tb testing.TB) *fuzzCorpus {
	tb.Helper()
	corpusOnce.Do(func() {
		c := dataset.GenerateSD(60, 20, 71)
		fc := &fuzzCorpus{c: c}
		idx, err := BuildIndex(c, IndexOptions{Model: tinyModel(), MaxSubset: 2, Percentile: 90})
		if err != nil {
			corpusErr = err
			return
		}
		var buf bytes.Buffer
		if corpusErr = idx.Save(&buf); corpusErr != nil {
			return
		}
		fc.index = append([]byte(nil), buf.Bytes()...)

		est, err := BuildEstimator(c, EstimatorOptions{Model: tinyModel(), MaxSubset: 2, Percentile: 90})
		if err != nil {
			corpusErr = err
			return
		}
		buf.Reset()
		if corpusErr = est.Save(&buf); corpusErr != nil {
			return
		}
		fc.card = append([]byte(nil), buf.Bytes()...)

		mf, err := BuildMembershipFilter(c, FilterOptions{Model: tinyModel(), MaxSubset: 2, Sandwich: true})
		if err != nil {
			corpusErr = err
			return
		}
		buf.Reset()
		if corpusErr = mf.Save(&buf); corpusErr != nil {
			return
		}
		fc.member = append([]byte(nil), buf.Bytes()...)
		corpus = fc
	})
	if corpusErr != nil {
		tb.Fatalf("building fuzz corpus: %v", corpusErr)
	}
	return corpus
}

// FuzzLoadStructure feeds arbitrary bytes to all three load paths. Corrupt
// or truncated input must surface as an error — never a panic, hang, or
// absurd allocation. Valid streams (the seeds) must load. The which byte
// selects the loader so the fuzzer can mutate structure bytes against their
// own decoder.
func FuzzLoadStructure(f *testing.F) {
	fc := buildFuzzCorpus(f)
	f.Add(byte(0), fc.index)
	f.Add(byte(1), fc.card)
	f.Add(byte(2), fc.member)
	// Cross-seeds: each structure against the other loaders.
	f.Add(byte(0), fc.card)
	f.Add(byte(1), fc.member)
	f.Add(byte(2), fc.index)
	f.Add(byte(0), []byte{})
	f.Add(byte(1), []byte("garbage that is not a structure"))
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		r := bytes.NewReader(data)
		switch which % 3 {
		case 0:
			if idx, err := LoadIndex(r, fc.c); err == nil {
				// A stream that decodes must yield a queryable structure.
				idx.Lookup(fc.c.At(0))
			}
		case 1:
			if est, err := LoadCardinalityEstimator(r); err == nil {
				est.Estimate(fc.c.At(0))
			}
		case 2:
			if mf, err := LoadMembershipFilter(r); err == nil {
				mf.Contains(fc.c.At(0))
			}
		}
	})
}

// TestLoadTruncatedNeverPanics sweeps every truncation point of each valid
// stream — the deterministic core of what FuzzLoadStructure explores — and
// additionally flips bytes at regular offsets. No variant may panic, and
// every truncation must fail to load: a prefix that loads means a dropped
// read error.
func TestLoadTruncatedNeverPanics(t *testing.T) {
	fc := buildFuzzCorpus(t)
	try := func(which int, data []byte) error {
		r := bytes.NewReader(data)
		switch which {
		case 0:
			idx, err := LoadIndex(r, fc.c)
			if err == nil {
				idx.Lookup(fc.c.At(0))
			}
			return err
		case 1:
			est, err := LoadCardinalityEstimator(r)
			if err == nil {
				est.Estimate(fc.c.At(0))
			}
			return err
		default:
			mf, err := LoadMembershipFilter(r)
			if err == nil {
				mf.Contains(fc.c.At(0))
			}
			return err
		}
	}
	for which, stream := range [][]byte{fc.index, fc.card, fc.member} {
		// Truncations: every prefix length for short streams, sampled for
		// long ones.
		step := 1
		if len(stream) > 2048 {
			step = len(stream) / 2048
		}
		for n := 0; n < len(stream); n += step {
			if try(which, stream[:n]) == nil {
				t.Errorf("stream %d: a %d-byte prefix of %d bytes loaded", which, n, len(stream))
			}
		}
		// Corruptions: flip one byte at sampled offsets.
		for off := 0; off < len(stream); off += 1 + len(stream)/256 {
			mut := append([]byte(nil), stream...)
			mut[off] ^= 0xA5
			try(which, mut)
		}
	}
}

// TestLoadValidStreamsStillWork pins the corpus itself: the untouched
// streams must load and answer queries.
func TestLoadValidStreamsStillWork(t *testing.T) {
	fc := buildFuzzCorpus(t)
	if _, err := LoadIndex(bytes.NewReader(fc.index), fc.c); err != nil {
		t.Fatalf("valid index stream rejected: %v", err)
	}
	if _, err := LoadCardinalityEstimator(bytes.NewReader(fc.card)); err != nil {
		t.Fatalf("valid estimator stream rejected: %v", err)
	}
	if _, err := LoadMembershipFilter(bytes.NewReader(fc.member)); err != nil {
		t.Fatalf("valid filter stream rejected: %v", err)
	}
}
