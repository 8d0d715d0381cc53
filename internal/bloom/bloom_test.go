package bloom

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 20000
	for _, target := range []float64{0.1, 0.01} {
		f := NewWithEstimates(n, target)
		rng := rand.New(rand.NewSource(2))
		inserted := make(map[uint64]bool, n)
		for len(inserted) < n {
			k := rng.Uint64()
			if !inserted[k] {
				inserted[k] = true
				f.Add(k)
			}
		}
		fp := 0
		const probes = 50000
		for i := 0; i < probes; i++ {
			k := rng.Uint64()
			if inserted[k] {
				continue
			}
			if f.Contains(k) {
				fp++
			}
		}
		rate := float64(fp) / probes
		if rate > target*2 {
			t.Fatalf("target fp %v but measured %v", target, rate)
		}
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := NewWithEstimates(100, 0.01)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if f.Contains(rng.Uint64()) {
			t.Fatal("empty filter claimed membership")
		}
	}
}

func TestSizeMonotoneInFPRate(t *testing.T) {
	// Figure 3: lower fp rate → bigger filter, more items → bigger filter.
	if OptimalSizeBytes(1000, 0.001) <= OptimalSizeBytes(1000, 0.1) {
		t.Fatal("size must grow as fp rate shrinks")
	}
	if OptimalSizeBytes(100000, 0.01) <= OptimalSizeBytes(1000, 0.01) {
		t.Fatal("size must grow with item count")
	}
	if OptimalSizeBytes(0, 0.01) != 0 {
		t.Fatal("zero items should cost zero bytes")
	}
}

func TestSizeBytesMatchesBits(t *testing.T) {
	f := New(1000, 3)
	if f.Bits()%64 != 0 {
		t.Fatal("bits must be rounded to word size")
	}
	if f.SizeBytes() != int(f.Bits()/8) {
		t.Fatalf("SizeBytes %d vs bits %d", f.SizeBytes(), f.Bits())
	}
	if f.K() != 3 {
		t.Fatalf("K=%d", f.K())
	}
}

func TestCount(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	for i := uint64(0); i < 1000; i++ {
		f.Add(i)
	}
	if f.Count() != 1000 {
		t.Fatalf("Count=%d", f.Count())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := NewWithEstimates(500, 0.01)
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Bits() != f.Bits() || g.K() != f.K() || g.Count() != f.Count() {
		t.Fatal("header mismatch after round trip")
	}
	for _, k := range keys {
		if !g.Contains(k) {
			t.Fatalf("loaded filter lost key %d", k)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader(make([]byte, 40))); err == nil {
		t.Fatal("expected bad magic error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected short read error")
	}
}

// TestLoadRejectsTruncatedStream cuts a saved filter at every length short
// of the whole: each prefix must fail to load, or a dropped read error
// would serve a filter whose missing bits answer false for added keys.
func TestLoadRejectsTruncatedStream(t *testing.T) {
	f := NewWithEstimates(500, 0.01)
	for k := uint64(0); k < 500; k++ {
		f.Add(k)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("a %d-byte prefix of the %d-byte stream loaded", n, len(full))
		}
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for name, f := range map[string]func(){
		"m=0": func() { New(0, 3) },
		"k=0": func() { New(64, 0) },
		"p=0": func() { NewWithEstimates(10, 0) },
		"p=1": func() { NewWithEstimates(10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkAdd(b *testing.B) {
	f := NewWithEstimates(uint64(b.N)+1, 0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

func BenchmarkContains(b *testing.B) {
	f := NewWithEstimates(100000, 0.01)
	for i := uint64(0); i < 100000; i++ {
		f.Add(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(uint64(i))
	}
}
