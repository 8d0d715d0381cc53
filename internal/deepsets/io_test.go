package deepsets

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// TestLoadBoundsWholeModel: a decoded config whose model would pass
// maxLoadParams, counting embeddings, φ and ρ with New's defaults, is
// rejected before New allocates it, and Load of its stream returns an
// error without panicking.
func TestLoadBoundsWholeModel(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		// The embedding table alone is one parameter past the limit.
		{"uncompressed embedding", Config{MaxID: maxLoadParams, EmbedDim: 1}},
		// 805,453,825 φ and ρ parameters over a 4-wide embedding.
		{"φ and ρ", Config{EmbedDim: 4, PhiHidden: []int{1 << 14, 1 << 14}, PhiOut: 1 << 14, RhoHidden: []int{1 << 14}}},
		// The default divisor at MaxID 2^32−1 is 65,536: 131,072 rows.
		{"compressed embeddings", Config{MaxID: math.MaxUint32, EmbedDim: 1 << 14, Compressed: true, NS: 2}},
		// One sub-element has no divisor to default to.
		{"compressed NS 1", Config{MaxID: 999, Compressed: true, NS: 1}},
	} {
		if err := validateForLoad(c.cfg); err == nil {
			// Load would allocate the model; do not hand it the stream.
			t.Errorf("%s: validateForLoad accepted it", c.name)
			continue
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.cfg); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Load panicked: %v", c.name, r)
				}
			}()
			if _, err := Load(&buf); err == nil {
				t.Errorf("%s: Load returned no error", c.name)
			}
		}()
	}
}

// TestParamCountMatchesNew: the load bound counts exactly the parameters
// New allocates, and accepts ordinary models.
func TestParamCountMatchesNew(t *testing.T) {
	for _, cfg := range []Config{
		{MaxID: 999, EmbedDim: 4, PhiHidden: []int{8}, PhiOut: 8, RhoHidden: []int{8}},
		{MaxID: 999, Compressed: true},
		{MaxID: 70000, Compressed: true, NS: 3, EmbedDim: 3, PhiHidden: []int{5, 7}, RhoHidden: []int{9, 2}},
		{MaxID: 10, Pool: MaxPool},
	} {
		if err := validateForLoad(cfg); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := paramCount(m.Config()), uint64(m.NumParams()); got != want {
			t.Errorf("%+v: paramCount %d, New allocated %d", cfg, got, want)
		}
	}
}
