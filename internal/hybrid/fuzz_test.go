package hybrid

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"setlearn/internal/sets"
)

// deltaOp is one decoded fuzz operation: an Add of set at pos, or a query.
type deltaOp struct {
	add bool
	pos int
	set sets.Set
}

// Fuzz input limits keep one run's oracle checks short.
const (
	fuzzMaxAdds    = 512
	fuzzMaxQueries = 64
)

// decodeDeltaOps turns fuzz bytes into Adds and queries. Each op starts
// with a byte whose low bit picks an Add (0) or a query (1) and whose next
// three bits give the set's length; an Add then takes a two-byte
// little-endian position. Each id is one byte, the top sixteen values
// standing for the ids just below math.MaxUint32. A truncated last op, and
// ops past fuzzMaxAdds Adds or fuzzMaxQueries queries, are dropped.
func decodeDeltaOps(data []byte) []deltaOp {
	var ops []deltaOp
	adds, queries := 0, 0
	for len(data) > 0 {
		op := deltaOp{add: data[0]&1 == 0}
		n := int(data[0]>>1) & 7
		ids := data[1:]
		if op.add {
			if len(ids) < 2 {
				break
			}
			op.pos = int(binary.LittleEndian.Uint16(ids))
			ids = ids[2:]
		}
		if len(ids) < n {
			break
		}
		s := make([]uint32, n)
		for i, b := range ids[:n] {
			s[i] = uint32(b)
			if b >= 0xF0 {
				s[i] = math.MaxUint32 - uint32(0xFF-b)
			}
		}
		op.set = sets.New(s...)
		data = ids[n:]
		if op.add {
			adds++
		} else {
			queries++
		}
		if adds > fuzzMaxAdds || queries > fuzzMaxQueries {
			break
		}
		ops = append(ops, op)
	}
	return ops
}

// encodeDeltaOps is decodeDeltaOps' inverse for positions below 65,536 and
// sets of at most seven ids, each below 0xF0 or within 16 of
// math.MaxUint32.
func encodeDeltaOps(ops []deltaOp) []byte {
	var out []byte
	for _, op := range ops {
		head := byte(len(op.set)) << 1
		if !op.add {
			head |= 1
		}
		out = append(out, head)
		if op.add {
			out = binary.LittleEndian.AppendUint16(out, uint16(op.pos))
		}
		for _, id := range op.set {
			if id >= 0xF0 {
				id = 0xFF - (math.MaxUint32 - id)
			}
			out = append(out, byte(id))
		}
	}
	return out
}

// FuzzDelta replays decoded Adds and queries on a Delta and the naive
// oracle: each query is checked against the delta as it stands, then every
// method over all queries and the first 64 entries' own sets, and the
// NewDeltaFrom(Tail(cut)) round trip over the queries at cuts 0, 1, 3, 7, ….
// The committed corpus under testdata/fuzz/FuzzDelta is written by
// TestWriteDeltaFuzzSeedCorpus (HYBRID_WRITE_CORPUS=1).
func FuzzDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeDeltaOps([]deltaOp{
		{add: true, pos: 3, set: sets.New(1, 2)},
		{add: true, pos: 1, set: sets.New(2, 0xFF)},
		{set: sets.New(2)},
		{set: sets.New(1, 2)},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, o := NewDelta(), &naiveDelta{}
		var qs []sets.Set
		for _, op := range decodeDeltaOps(data) {
			if op.add {
				d.Add(op.set, op.pos)
				o.add(op.set, op.pos)
				continue
			}
			qs = append(qs, op.set)
			checkQueries(t, "fuzz", d, o, qs[len(qs)-1:])
		}
		own := qs
		for _, en := range o.entries[:min(len(o.entries), 64)] {
			own = append(own, en.Set)
		}
		checkOracle(t, "fuzz", d, o, own)
		for cut := 0; cut <= len(o.entries); cut = 2*cut + 1 {
			tail := d.Tail(cut)
			if !sameEntries(tail, o.entries[cut:]) {
				t.Fatalf("Tail(%d) differs from the oracle", cut)
			}
			checkOracle(t, "fuzz/roundtrip", NewDeltaFrom(tail), &naiveDelta{entries: o.entries[cut:]}, qs)
		}
	})
}

// deltaSeeds are the committed corpus: named op sequences.
func deltaSeeds() map[string][]deltaOp {
	rng := rand.New(rand.NewSource(26))
	query := func(ids ...uint32) deltaOp { return deltaOp{set: sets.New(ids...)} }
	seeds := map[string][]deltaOp{}

	// Id 7 in entries 0-2 turns into a one-word bitmap at entry 1; back at
	// entry 100, four bitmap words are no smaller than four array slots, so
	// it turns into an array, and into a bitmap again at entry 101. Id 8
	// fills the entries between; two adjacent positions swap.
	var sw []deltaOp
	for e := 0; e < 104; e++ {
		s := sets.New(8)
		if e < 3 || e >= 100 {
			s = sets.New(7, 8, uint32(9+e%3))
		}
		sw = append(sw, deltaOp{add: true, pos: e, set: s})
		if e%25 == 0 {
			sw = append(sw, query(7), query(7, 8), query(7, 10))
		}
	}
	sw[40].pos, sw[41].pos = sw[41].pos, sw[40].pos
	seeds["seed-form-switch"] = append(sw, query(8), query(7, 9), query(7, 8, 11), query(9, 10))

	// Ascending positions with adjacent swaps over a small vocabulary, the
	// order racing inserts produce, with queries between the Adds.
	pos := make([]int, 300)
	for e := range pos {
		pos[e] = 500 + e
		if e > 0 && rng.Intn(6) == 0 {
			pos[e-1], pos[e] = pos[e], pos[e-1]
		}
	}
	var race []deltaOp
	for e, p := range pos {
		ids := make([]uint32, 1+rng.Intn(5))
		for i := range ids {
			ids[i] = uint32(rng.Intn(30))
		}
		race = append(race, deltaOp{add: true, pos: p, set: sets.New(ids...)})
		if e%10 == 9 {
			race = append(race, query(uint32(rng.Intn(30)), uint32(rng.Intn(30))))
		}
	}
	seeds["seed-racing"] = race

	// Scattered positions and ids near math.MaxUint32.
	var top []deltaOp
	for e := 0; e < 80; e++ {
		ids := make([]uint32, 1+rng.Intn(4))
		for i := range ids {
			ids[i] = math.MaxUint32 - uint32(rng.Intn(6))
		}
		top = append(top, deltaOp{add: true, pos: rng.Intn(1 << 16), set: sets.New(ids...)})
	}
	seeds["seed-maxuint"] = append(top, query(math.MaxUint32), query(math.MaxUint32-1, math.MaxUint32), query(0))
	return seeds
}

// TestDeltaFuzzSeeds requires the committed corpus to match deltaSeeds,
// each file to decode back to its ops, and the corpus to turn some posting
// into a bitmap and some back into an array.
func TestDeltaFuzzSeeds(t *testing.T) {
	var forms formLog
	for name, ops := range deltaSeeds() {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDelta", name))
		if err != nil {
			t.Fatalf("committed seed missing: %v", err)
		}
		body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		body, ok2 := strings.CutSuffix(body, ")\n")
		data, err := strconv.Unquote(body)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file (%v)", name, err)
		}
		if data != string(encodeDeltaOps(ops)) {
			t.Fatalf("%s: committed bytes differ from deltaSeeds; rerun with HYBRID_WRITE_CORPUS=1", name)
		}
		decoded := decodeDeltaOps([]byte(data))
		if len(decoded) != len(ops) {
			t.Fatalf("%s: decoded %d ops, want %d", name, len(decoded), len(ops))
		}
		d := NewDelta()
		for i, op := range decoded {
			if op.add != ops[i].add || op.pos != ops[i].pos || !op.set.Equal(ops[i].set) {
				t.Fatalf("%s: op %d decodes to %+v, want %+v", name, i, op, ops[i])
			}
			if op.add {
				d.Add(op.set, op.pos)
				forms.observe(d, op.set)
			}
		}
	}
	if forms.toBitmap == 0 || forms.toArray == 0 {
		t.Fatalf("corpus turns postings into bitmaps %d times and back %d times, want both", forms.toBitmap, forms.toArray)
	}
}

// TestWriteDeltaFuzzSeedCorpus regenerates the committed corpus. Skipped
// unless HYBRID_WRITE_CORPUS=1.
func TestWriteDeltaFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("HYBRID_WRITE_CORPUS") == "" {
		t.Skip("set HYBRID_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDelta")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, ops := range deltaSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(encodeDeltaOps(ops))) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
