package shard

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"setlearn/internal/blockio"
	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// Version-3 persistence pins: the error-aware sharding state — partitioner
// assignment tables, presence bitmaps, support filters — must round-trip
// byte-identically and reject every corrupted field with an error, never a
// panic or a container that silently routes/prunes from garbage. Streams
// written by calibrated builds of earlier releases must keep loading and
// answering exactly.

var (
	ioV3Once     sync.Once
	ioV3Col      *sets.Collection
	ioV3CardFreq []byte
	ioV3IdxClust []byte
	ioV3Err      error
)

// buildIOV3Corpus serializes one frequency-band estimator and one
// embedding-cluster index — the two containers that exercise every v3
// header field a build writes (frequency table, centroids + pilot
// parameters, presence bitmaps, support filters).
func buildIOV3Corpus(tb testing.TB) (c *sets.Collection, cardFreq, idxClust []byte) {
	tb.Helper()
	ioV3Once.Do(func() {
		ioV3Col = dataset.GenerateSD(60, 20, 71)
		est, err := BuildShardedEstimator(ioV3Col, Options{
			Shards: 3, Partitioner: FrequencyBand,
		}, core.EstimatorOptions{Model: ioModel(), MaxSubset: 2, Percentile: 50})
		if err != nil {
			ioV3Err = err
			return
		}
		var buf bytes.Buffer
		if ioV3Err = est.Save(&buf); ioV3Err != nil {
			return
		}
		ioV3CardFreq = append([]byte(nil), buf.Bytes()...)

		idx, err := BuildShardedIndex(ioV3Col, Options{
			Shards: 3, Partitioner: EmbedCluster,
		}, core.IndexOptions{Model: ioModel(), MaxSubset: 2})
		if err != nil {
			ioV3Err = err
			return
		}
		buf.Reset()
		if ioV3Err = idx.Save(&buf); ioV3Err != nil {
			return
		}
		ioV3IdxClust = append([]byte(nil), buf.Bytes()...)
	})
	if ioV3Err != nil {
		tb.Fatalf("building v3 io corpus: %v", ioV3Err)
	}
	return ioV3Col, ioV3CardFreq, ioV3IdxClust
}

// TestShardedV3GoldenRoundTrip: the freq/cluster containers save → load →
// save byte-identically, and the reloaded containers keep their routing
// tables and exact answers.
func TestShardedV3GoldenRoundTrip(t *testing.T) {
	c, cardFreq, idxClust := buildIOV3Corpus(t)
	st := dataset.CollectSubsets(c, 2)
	keys := sampleKeys(st, 4)

	t.Run("freq-estimator", func(t *testing.T) {
		e, err := LoadShardedEstimator(bytes.NewReader(cardFreq))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cardFreq, buf.Bytes()) {
			t.Fatalf("round trip not byte-identical: %d → %d bytes", len(cardFreq), buf.Len())
		}
		if e.route.freq == nil {
			t.Fatal("reloaded estimator lost its frequency table")
		}
		if e.route.present == nil || e.route.support == nil {
			t.Fatal("reloaded estimator lost its presence/support prune state")
		}
		// Routing stays consistent: an insert lands in the same shard a
		// freshly built router would pick.
		probe := c.At(0)
		if got, want := e.route.owner(probe), e.route.freq.owner(probe); got != want {
			t.Fatalf("owner(%v) = %d, want %d", probe, got, want)
		}
	})

	t.Run("cluster-index", func(t *testing.T) {
		x, err := LoadShardedIndex(bytes.NewReader(idxClust), c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(idxClust, buf.Bytes()) {
			t.Fatalf("round trip not byte-identical: %d → %d bytes", len(idxClust), buf.Len())
		}
		if x.route.clust == nil {
			t.Fatal("reloaded index lost its centroid table")
		}
		for _, key := range keys {
			info := st.ByKey[key]
			if got := x.Lookup(info.Set); got != info.FirstPos {
				t.Fatalf("reloaded Lookup(%v) = %d, want %d", info.Set, got, info.FirstPos)
			}
		}
	})
}

// rewriteHeader decodes a saved container's header, applies mut, re-encodes
// it, and splices the original shard payloads back on — the surgical tool
// for corrupting one header field at a time.
func rewriteHeader(tb testing.TB, stream []byte, mut func(*containerHeader)) []byte {
	tb.Helper()
	r := bytes.NewReader(stream)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		tb.Fatal(err)
	}
	block, err := blockio.Read(r)
	if err != nil {
		tb.Fatal(err)
	}
	var hdr containerHeader
	if err := gob.NewDecoder(block).Decode(&hdr); err != nil {
		tb.Fatal(err)
	}
	mut(&hdr)
	var out bytes.Buffer
	out.Write(magic)
	if err := blockio.Write(&out, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(hdr)
	}); err != nil {
		tb.Fatal(err)
	}
	rest := make([]byte, r.Len())
	if _, err := io.ReadFull(r, rest); err != nil {
		tb.Fatal(err)
	}
	out.Write(rest)
	return out.Bytes()
}

// TestShardedV3HeaderPins corrupts each v3 header field in turn; every
// variant must be rejected at load.
func TestShardedV3HeaderPins(t *testing.T) {
	c, cardFreq, idxClust := buildIOV3Corpus(t)

	estCases := []struct {
		name string
		mut  func(*containerHeader)
	}{
		{"curve rows for wrong shard count", func(h *containerHeader) {
			h.CalX = [][]float64{{1}} // one legacy curve row for 3 shards
		}},
		{"frequency ids not increasing", func(h *containerHeader) {
			if len(h.FreqIDs) < 2 {
				t.Fatal("corpus has no frequency table to corrupt")
			}
			h.FreqIDs[1] = h.FreqIDs[0]
		}},
		{"frequency count zero", func(h *containerHeader) {
			h.FreqCounts[0] = 0
		}},
		{"frequency bounds decreasing", func(h *containerHeader) {
			h.FreqBounds[0] = h.FreqBounds[len(h.FreqBounds)-1] + 1
		}},
		{"frequency bounds wrong length", func(h *containerHeader) {
			h.FreqBounds = h.FreqBounds[:1]
		}},
		{"presence rows for wrong shard count", func(h *containerHeader) {
			h.Present = h.Present[:1]
		}},
		{"support rows for wrong shard count", func(h *containerHeader) {
			h.Support = h.Support[:1]
		}},
		{"support saturation flags wrong length", func(h *containerHeader) {
			h.SupportSat = h.SupportSat[:1]
		}},
		{"support row not a power of two", func(h *containerHeader) {
			h.Support[0] = make([]uint64, 3)
		}},
		{"freq partitioner in a v2 stream", func(h *containerHeader) {
			h.Version = 2
		}},
	}
	for _, tc := range estCases {
		tc := tc
		t.Run("estimator/"+tc.name, func(t *testing.T) {
			bad := rewriteHeader(t, cardFreq, tc.mut)
			if _, err := LoadShardedEstimator(bytes.NewReader(bad)); err == nil {
				t.Fatal("corrupted header loaded without error")
			}
		})
	}

	idxCases := []struct {
		name string
		mut  func(*containerHeader)
	}{
		{"centroid table wrong length", func(h *containerHeader) {
			h.Centroids = h.Centroids[:1]
		}},
		{"centroid wrong dimension", func(h *containerHeader) {
			h.Centroids[0] = h.Centroids[0][:len(h.Centroids[0])-1]
		}},
		{"centroid not finite", func(h *containerHeader) {
			h.Centroids[0][0] = math.Inf(1)
		}},
		{"pilot dimension zero", func(h *containerHeader) {
			h.PilotDim = 0
		}},
		{"pilot dimension oversized", func(h *containerHeader) {
			h.PilotDim = maxPilotDim + 1
		}},
		{"cluster partitioner in a v2 stream", func(h *containerHeader) {
			h.Version = 2
		}},
	}
	for _, tc := range idxCases {
		tc := tc
		t.Run("index/"+tc.name, func(t *testing.T) {
			bad := rewriteHeader(t, idxClust, tc.mut)
			if _, err := LoadShardedIndex(bytes.NewReader(bad), c); err == nil {
				t.Fatal("corrupted header loaded without error")
			}
		})
	}
}

// legacyCalibratedFixtures reads the committed streams of a calibrated
// FrequencyBand estimator (MeasureBounds on) and a calibrated EmbedCluster
// index, written by an earlier release from the buildIOV3Corpus inputs
// (K=3 over GenerateSD(60, 20, 71), ioModel, MaxSubset 2).
func legacyCalibratedFixtures(tb testing.TB) (card, index []byte) {
	tb.Helper()
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return read("v3-calibrated-card.bin"), read("v3-calibrated-index.bin")
}

// resave saves a loaded container and returns the bytes.
func resave(tb testing.TB, save func(io.Writer) error) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedV3LegacyCalibrated: streams from calibrated builds load and
// serve the plain model path exactly. The index remeasures its error
// bounds, so every trained subset is found at its first position; the
// estimator drops the bounds that were measured with the curves applied;
// and a re-saved stream round-trips byte-identically.
func TestShardedV3LegacyCalibrated(t *testing.T) {
	c, _, _ := buildIOV3Corpus(t)
	card, index := legacyCalibratedFixtures(t)

	t.Run("index", func(t *testing.T) {
		x, err := LoadShardedIndex(bytes.NewReader(index), c)
		if err != nil {
			t.Fatal(err)
		}
		st := dataset.CollectSubsetsWithFull(c, x.MaxSubset())
		for _, key := range st.Keys {
			q := st.ByKey[key].Set
			if got, want := x.Lookup(q), c.FirstPosition(q); got != want {
				t.Fatalf("Lookup(%v) = %d, want first position %d", q, got, want)
			}
		}
		// The loaded bounds are the plain model's: remeasuring moves none.
		for s := 0; s < x.NumShards(); s++ {
			sh := x.states[s].Load()
			if sh.idx == nil {
				continue
			}
			h := sh.idx.Hybrid()
			maxErr, meanErr := h.MaxError(), h.MeanLocalError()
			h.RemeasureBounds(dataset.CollectSubsetsWithFull(sh.sub, x.MaxSubset()).IndexSamples())
			if h.MaxError() != maxErr || h.MeanLocalError() != meanErr {
				t.Fatalf("shard %d bounds (max %d, mean %g) are not the plain model's (max %d, mean %g)",
					s, maxErr, meanErr, h.MaxError(), h.MeanLocalError())
			}
		}
		first := resave(t, x.Save)
		x2, err := LoadShardedIndex(bytes.NewReader(first), c)
		if err != nil {
			t.Fatal(err)
		}
		if second := resave(t, x2.Save); !bytes.Equal(first, second) {
			t.Fatalf("re-saved index not byte-identical: %d → %d bytes", len(first), len(second))
		}
	})

	t.Run("estimator", func(t *testing.T) {
		e, err := LoadShardedEstimator(bytes.NewReader(card))
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := e.CombinedErrorBound(); ok {
			t.Fatalf("CombinedErrorBound = %g, ok; want ok=false for calibrated bounds", b)
		}
		first := resave(t, e.Save)
		e2, err := LoadShardedEstimator(bytes.NewReader(first))
		if err != nil {
			t.Fatal(err)
		}
		if second := resave(t, e2.Save); !bytes.Equal(first, second) {
			t.Fatalf("re-saved estimator not byte-identical: %d → %d bytes", len(first), len(second))
		}
	})
}
