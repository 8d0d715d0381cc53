package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// ioCorpus holds one tiny sharded container of each kind, serialized, plus
// the collection the index needs at load time — the seeds for the golden,
// truncation, and fuzz tests. K=3 over a hash partition so the corpus
// exercises uneven shards.
type ioCorpus struct {
	c      *sets.Collection
	index  []byte
	card   []byte
	member []byte
}

var (
	ioOnce sync.Once
	ioC    *ioCorpus
	ioErr  error
)

func ioModel() core.ModelOptions {
	return core.ModelOptions{
		EmbedDim: 2, PhiHidden: []int{4}, PhiOut: 4, RhoHidden: []int{4},
		Epochs: 1, LR: 0.01, Workers: 1, Seed: 5,
	}
}

func buildIOCorpus(tb testing.TB) *ioCorpus {
	tb.Helper()
	ioOnce.Do(func() {
		c := dataset.GenerateSD(60, 20, 71)
		fc := &ioCorpus{c: c}
		o := Options{Shards: 3, Partitioner: HashBySet, MeasureBounds: true}

		idx, err := BuildShardedIndex(c, o, core.IndexOptions{Model: ioModel(), MaxSubset: 2, Percentile: 90})
		if err != nil {
			ioErr = err
			return
		}
		var buf bytes.Buffer
		if ioErr = idx.Save(&buf); ioErr != nil {
			return
		}
		fc.index = append([]byte(nil), buf.Bytes()...)

		est, err := BuildShardedEstimator(c, o, core.EstimatorOptions{Model: ioModel(), MaxSubset: 2, Percentile: 90})
		if err != nil {
			ioErr = err
			return
		}
		// An exact override so the container-level aux round-trips too.
		est.Update(sets.New(c.MaxID()+5), 3)
		buf.Reset()
		if ioErr = est.Save(&buf); ioErr != nil {
			return
		}
		fc.card = append([]byte(nil), buf.Bytes()...)

		mf, err := BuildShardedFilter(c, o, core.FilterOptions{Model: ioModel(), MaxSubset: 2, Sandwich: true})
		if err != nil {
			ioErr = err
			return
		}
		buf.Reset()
		if ioErr = mf.Save(&buf); ioErr != nil {
			return
		}
		fc.member = append([]byte(nil), buf.Bytes()...)
		ioC = fc
	})
	if ioErr != nil {
		tb.Fatalf("building sharded io corpus: %v", ioErr)
	}
	return ioC
}

// TestShardedGoldenRoundTrip: save → load → save must be byte-identical,
// and the reloaded container must answer exactly like the saved one.
func TestShardedGoldenRoundTrip(t *testing.T) {
	fc := buildIOCorpus(t)
	st := dataset.CollectSubsets(fc.c, 2)
	keys := sampleKeys(st, 4)

	t.Run("index", func(t *testing.T) {
		x, err := LoadShardedIndex(bytes.NewReader(fc.index), fc.c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fc.index, buf.Bytes()) {
			t.Fatalf("round trip not byte-identical: %d → %d bytes", len(fc.index), buf.Len())
		}
		for _, key := range keys {
			info := st.ByKey[key]
			if got := x.Lookup(info.Set); got != info.FirstPos {
				t.Fatalf("reloaded Lookup(%v) = %d, want %d", info.Set, got, info.FirstPos)
			}
		}
	})

	t.Run("estimator", func(t *testing.T) {
		e, err := LoadShardedEstimator(bytes.NewReader(fc.card))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fc.card, buf.Bytes()) {
			t.Fatalf("round trip not byte-identical: %d → %d bytes", len(fc.card), buf.Len())
		}
		if got := e.Estimate(sets.New(fc.c.MaxID() + 5)); got != 3 {
			t.Fatalf("reloaded override = %g, want 3", got)
		}
		if _, ok := e.CombinedErrorBound(); !ok {
			t.Fatal("measured bounds lost in round trip")
		}
	})

	t.Run("filter", func(t *testing.T) {
		f, err := LoadShardedFilter(bytes.NewReader(fc.member))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fc.member, buf.Bytes()) {
			t.Fatalf("round trip not byte-identical: %d → %d bytes", len(fc.member), buf.Len())
		}
		for _, key := range keys {
			if !f.Contains(st.ByKey[key].Set) {
				t.Fatalf("reloaded filter lost trained subset %v", st.ByKey[key].Set)
			}
		}
	})
}

// tryLoadSharded drives one loader over data and returns its error; a
// decode must yield a queryable container, and no input may panic.
func tryLoadSharded(c *sets.Collection, which int, data []byte) error {
	r := bytes.NewReader(data)
	switch which {
	case 0:
		x, err := LoadShardedIndex(r, c)
		if err == nil {
			x.Lookup(c.At(0))
		}
		return err
	case 1:
		e, err := LoadShardedEstimator(r)
		if err == nil {
			e.Estimate(c.At(0))
		}
		return err
	default:
		f, err := LoadShardedFilter(r)
		if err == nil {
			f.Contains(c.At(0))
		}
		return err
	}
}

// TestShardedLoadErrors pins the corrupt-header cases: bad magic, a
// monolithic (non-sharded) stream, kind mismatches, and empty input must
// all return errors, not panic.
func TestShardedLoadErrors(t *testing.T) {
	fc := buildIOCorpus(t)
	if _, err := LoadShardedEstimator(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input loaded")
	}
	bad := append([]byte(nil), fc.card...)
	bad[0] ^= 0xFF
	if _, err := LoadShardedEstimator(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt magic loaded")
	}
	// Kind mismatches: each stream against the other loaders.
	if _, err := LoadShardedEstimator(bytes.NewReader(fc.member)); err == nil {
		t.Fatal("filter container loaded as estimator")
	}
	if _, err := LoadShardedFilter(bytes.NewReader(fc.index)); err == nil {
		t.Fatal("index container loaded as filter")
	}
	if _, err := LoadShardedIndex(bytes.NewReader(fc.card), fc.c); err == nil {
		t.Fatal("estimator container loaded as index")
	}
	// A monolithic core stream is not a sharded container.
	mono, err := core.BuildEstimator(fc.c, core.EstimatorOptions{Model: ioModel(), MaxSubset: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mono.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedEstimator(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("monolithic stream loaded as sharded container")
	}
	if SniffSharded(bytes.NewReader(buf.Bytes())) {
		t.Fatal("monolithic stream sniffed as sharded")
	}
	if !SniffSharded(bytes.NewReader(fc.card)) {
		t.Fatal("sharded stream not sniffed")
	}
}

// TestShardedLoadTruncatedNeverPanics sweeps every truncation point of each
// valid container (sampled for long streams) plus single-byte corruptions.
// No variant may panic, and every truncation must fail to load: a prefix
// that loads means a dropped read error.
func TestShardedLoadTruncatedNeverPanics(t *testing.T) {
	fc := buildIOCorpus(t)
	for which, stream := range [][]byte{fc.index, fc.card, fc.member} {
		step := 1
		if len(stream) > 2048 {
			step = len(stream) / 2048
		}
		for n := 0; n < len(stream); n += step {
			if tryLoadSharded(fc.c, which, stream[:n]) == nil {
				t.Errorf("stream %d: a %d-byte prefix of %d bytes loaded", which, n, len(stream))
			}
		}
		for off := 0; off < len(stream); off += 1 + len(stream)/256 {
			mut := append([]byte(nil), stream...)
			mut[off] ^= 0xA5
			tryLoadSharded(fc.c, which, mut)
		}
	}
}

// FuzzLoadSharded feeds arbitrary bytes to the three sharded load paths.
// Corrupt input must surface as an error — never a panic, hang, or absurd
// allocation. The which byte selects the loader so the fuzzer can mutate
// container bytes against their own decoder. Seeds for the committed corpus
// under testdata/fuzz/FuzzLoadSharded are regenerated by
// TestWriteFuzzSeedCorpus (SHARD_WRITE_CORPUS=1).
func FuzzLoadSharded(f *testing.F) {
	fc := buildIOCorpus(f)
	_, cardFreq, idxClust := buildIOV3Corpus(f)
	legacyCard, legacyIndex := legacyCalibratedFixtures(f)
	f.Add(byte(0), fc.index)
	f.Add(byte(1), fc.card)
	f.Add(byte(2), fc.member)
	f.Add(byte(0), fc.card)
	f.Add(byte(2), fc.card)
	f.Add(byte(1), cardFreq)    // freq container, full v3 header
	f.Add(byte(0), idxClust)    // cluster container, centroid table
	f.Add(byte(2), cardFreq)    // v3 frame against the wrong loader
	f.Add(byte(1), legacyCard)  // v3 header with calibration curves
	f.Add(byte(0), legacyIndex) // v3 index whose bounds are remeasured
	f.Add(byte(1), []byte(Magic))
	f.Add(byte(1), []byte("garbage that is not a container"))
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		tryLoadSharded(fc.c, int(which%3), data)
	})
}

// TestShardedFuzzSeedsCommitted requires the committed seed corpus to be
// present (the Go fuzz engine replays those files on every plain `go test`
// run) and additionally drives the raw file bytes — corpus framing
// included — through the loaders as one more corruption case.
func TestShardedFuzzSeedsCommitted(t *testing.T) {
	fc := buildIOCorpus(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadSharded")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed seed corpus missing: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("committed seed corpus is empty")
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for which := 0; which < 3; which++ {
			tryLoadSharded(fc.c, which, data)
		}
	}
}

// TestWriteFuzzSeedCorpus regenerates the committed seed corpus. Skipped
// unless SHARD_WRITE_CORPUS=1 (run once and commit the result whenever the
// container format changes).
func TestWriteFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("SHARD_WRITE_CORPUS") == "" {
		t.Skip("set SHARD_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	fc := buildIOCorpus(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadSharded")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, which byte, data []byte) {
		body := "go test fuzz v1\n" +
			"byte(" + strconv.QuoteRuneToASCII(rune(which)) + ")\n" +
			"[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seed-index", 0, fc.index)
	write("seed-card", 1, fc.card)
	write("seed-member", 2, fc.member)
	write("seed-cross", 0, fc.card)
	write("seed-magic-only", 1, []byte(Magic))
	_, cardFreq, idxClust := buildIOV3Corpus(t)
	write("seed-card-freq-v3", 1, cardFreq)
	write("seed-index-clust-v3", 0, idxClust)
	write("seed-cross-v3", 2, cardFreq)
	write("seed-card-v1", 1, asV1(t, fc.card))
}
