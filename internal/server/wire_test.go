package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"setlearn/internal/core"
	"setlearn/internal/sets"
)

// The encoding/json request decoding that parseSets replaced, kept as the
// oracle of FuzzDecodeBody. Only the names differ from the old handlers,
// the body arrives as bytes, and oracleDecode refuses anything but
// whitespace after the object.

type oracleQueryRequest struct {
	Query   []uint32   `json:"query,omitempty"`
	Queries [][]uint32 `json:"queries,omitempty"`
	Equal   bool       `json:"equal,omitempty"`
}

type oracleInsertRequest struct {
	Set  []uint32   `json:"set,omitempty"`
	Sets [][]uint32 `json:"sets,omitempty"`
}

func oracleDecode(body []byte, v any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return badRequest("bad request body: data after the value")
	}
	return nil
}

func oracleQuery(body []byte) ([]sets.Set, bool, bool, *apiError) {
	var req oracleQueryRequest
	if err := oracleDecode(body, &req); err != nil {
		return nil, false, false, err
	}
	switch {
	case req.Query != nil && req.Queries != nil:
		return nil, false, false, badRequest(`provide exactly one of "query" or "queries"`)
	case req.Query != nil:
		if len(req.Query) == 0 {
			return nil, false, false, badRequest("query must be non-empty")
		}
		return []sets.Set{sets.New(req.Query...)}, false, req.Equal, nil
	case req.Queries != nil:
		if len(req.Queries) == 0 {
			return nil, false, false, badRequest("queries must be non-empty")
		}
		if len(req.Queries) > maxBatch {
			return nil, false, false, badRequest("batch of %d exceeds limit %d", len(req.Queries), maxBatch)
		}
		qs := make([]sets.Set, len(req.Queries))
		for i, ids := range req.Queries {
			if len(ids) == 0 {
				return nil, false, false, badRequest("query %d must be non-empty", i)
			}
			qs[i] = sets.New(ids...)
		}
		return qs, true, req.Equal, nil
	default:
		return nil, false, false, badRequest(`provide "query" (single) or "queries" (batch)`)
	}
}

func oracleInsert(body []byte) ([]sets.Set, bool, bool, *apiError) {
	var req oracleInsertRequest
	if err := oracleDecode(body, &req); err != nil {
		return nil, false, false, err
	}
	switch {
	case req.Set != nil && req.Sets != nil:
		return nil, false, false, badRequest(`provide exactly one of "set" or "sets"`)
	case req.Set != nil:
		if len(req.Set) == 0 {
			return nil, false, false, badRequest("set must be non-empty")
		}
		return []sets.Set{sets.New(req.Set...)}, false, false, nil
	case req.Sets != nil:
		if len(req.Sets) == 0 {
			return nil, false, false, badRequest("sets must be non-empty")
		}
		if len(req.Sets) > maxBatch {
			return nil, false, false, badRequest("batch of %d exceeds limit %d", len(req.Sets), maxBatch)
		}
		ss := make([]sets.Set, len(req.Sets))
		for i, ids := range req.Sets {
			if len(ids) == 0 {
				return nil, false, false, badRequest("set %d must be non-empty", i)
			}
			ss[i] = sets.New(ids...)
		}
		return ss, true, false, nil
	default:
		return nil, false, false, badRequest(`provide "set" (single) or "sets" (batch)`)
	}
}

// tightened reports whether a body the oracle accepts uses one of the
// inputs parseSets refuses on purpose: a key written with escapes, or null
// as an element id. (The third, data after the object, the oracle refuses
// too.) In an accepted body every string is a key, so any backslash is in
// a key; a null is an element id when it sits in the single form's array
// or in an inner array of the batch form.
func tightened(body []byte, one string) bool {
	if bytes.IndexByte(body, '\\') >= 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	depth, key := 0, ""
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch t := tok.(type) {
		case json.Delim:
			if t == '{' || t == '[' {
				depth++
			} else if depth--; depth == 0 {
				return false
			}
		case string:
			if depth == 1 {
				key = t
			}
		case nil:
			if depth == 3 || depth == 2 && strings.EqualFold(key, one) {
				return true
			}
		}
	}
}

// decodeSeeds covers each rule of the request grammar; FuzzDecodeBody runs
// every one on both request shapes.
var decodeSeeds = []string{
	// Accepted forms, with JSON whitespace wherever it may go.
	`{"query":[3,1,2,1]}`,
	`{"queries":[[1,2],[3],[2,1]]}`,
	" \t{\n \"query\" :\r[ 0 , 4294967295 ]\n}\r\n ",
	`{"set":[5,4]}`,
	`{"sets":[[1],[2,3]]}`,
	// Keys fold case the way encoding/json does, Unicode included.
	`{"QUERY":[1]}`,
	`{"Queries":[[1]]}`,
	"{\"querie\xc5\xbf\":[[1]]}",
	"{\"\xc5\xbfet\":[1]}",
	`{"Equal":true,"query":[1]}`,
	// A repeated key's last value wins.
	`{"query":[1,2],"query":[3]}`,
	`{"queries":[[1],[2]],"queries":[[3]]}`,
	`{"query":[],"query":[1]}`,
	`{"queries":[[]],"queries":[[1]]}`,
	`{"queries":[null],"queries":[[1]]}`,
	`{"query":[1],"QUERY":[2]}`,
	// null counts as absent; on equal it changes nothing.
	`{"query":[1],"queries":null}`,
	`{"query":null,"queries":[[1]]}`,
	`{"query":null}`,
	`{"query":[1],"query":null}`,
	`{"query":[1],"equal":true,"equal":null}`,
	`{"query":[1],"equal":true,"equal":false}`,
	`{"query":[1],"equal":null}`,
	// Semantic errors.
	`{"query":[1],"queries":[[2]]}`,
	`{}`,
	`{"q":[1]}`,
	`{"set":[1],"equal":true}`,
	`{"query":[1],"equal":1}`,
	`{"query":[]}`,
	`{"queries":[]}`,
	`{"queries":[[1],[]]}`,
	`{"queries":[[1],null]}`,
	// Ids: plain integer literals from 0 to 4294967295 only.
	`{"query":[0]}`,
	`{"query":[4294967296]}`,
	`{"query":[-1]}`,
	`{"query":[-0]}`,
	`{"query":[1.0]}`,
	`{"query":[1e2]}`,
	`{"query":[01]}`,
	`{"query":["1"]}`,
	`{"query":[true]}`,
	// Syntax errors.
	``,
	`{"query":[1,]}`,
	`{"query":[1]`,
	`{"query":[1],}`,
	`{"query" [1]}`,
	`{"query":[1 2]}`,
	`{"query":nul}`,
	`{"query":[1],"equal":truex}`,
	"{\"query\":[1],\"\x01\":1}",
	// The three tightenings: data after the object, null as an element id
	// (read as 0, or as the stale id of an earlier array, by encoding/json),
	// and an escaped key.
	`{"query":[1]} x`,
	`{"query":[1]}{}`,
	"{\"query\":[1]}\x00",
	`{"query":[null,1]}`,
	`{"query":[27,43,20],"query":[null,39,8,36]}`,
	`{"queries":[[1,null]]}`,
	`{"\u0071uery":[1]}`,
	// A batch over the limit, alone and overridden by a later key.
	`{"queries":[` + strings.Repeat(`[1],`, maxBatch) + `[1]]}`,
	`{"queries":[` + strings.Repeat(`[1],`, maxBatch) + `[1]],"queries":[[2]]}`,
}

// FuzzDecodeBody checks parseSets against the encoding/json oracle on both
// request shapes: whatever parseSets accepts, the oracle accepts with the
// same sets, batch flag and equal flag; whatever the oracle accepts,
// parseSets accepts unless the body uses one of the deliberate
// tightenings; and every rejection is a 400.
func FuzzDecodeBody(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, shape := range []struct {
			one, many  string
			allowEqual bool
			oracle     func([]byte) ([]sets.Set, bool, bool, *apiError)
		}{
			{"query", "queries", true, oracleQuery},
			{"set", "sets", false, oracleInsert},
		} {
			qs, batch, equal, err := parseSets(body, shape.one, shape.many, shape.allowEqual)
			wqs, wbatch, wequal, werr := shape.oracle(body)
			switch {
			case err != nil && err.status != http.StatusBadRequest:
				t.Fatalf("%s %q: status %d, want 400", shape.one, body, err.status)
			case err == nil && werr != nil:
				t.Fatalf("%s %q: accepted, oracle refuses: %v", shape.one, body, werr)
			case err != nil && werr == nil && !tightened(body, shape.one):
				t.Fatalf("%s %q: refused (%v), oracle accepts", shape.one, body, err)
			case err == nil && (batch != wbatch || equal != wequal || !equalSets(qs, wqs)):
				t.Fatalf("%s %q: got %v batch=%v equal=%v, oracle %v batch=%v equal=%v",
					shape.one, body, qs, batch, equal, wqs, wbatch, wequal)
			}
			for _, q := range qs {
				if cap(q) != len(q) {
					t.Fatalf("%s %q: set %v has cap %d", shape.one, body, q, cap(q))
				}
			}
		}
	})
}

func equalSets(a, b []sets.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// stubInserter hands out the positions in pos, in order.
type stubInserter struct{ pos []int }

func (s *stubInserter) InsertSet(sets.Set) int {
	p := s.pos[0]
	s.pos = s.pos[1:]
	return p
}

func (*stubInserter) DeltaStats() core.DeltaStats { return core.DeltaStats{} }

// Stub structures answering with fixed values, so a test controls every
// byte the encoder sees. Each embeds its interface for the methods the
// handlers never call.
type stubCard struct {
	core.CardinalityQuerier
	*stubInserter
	ests []float64
}

func (c *stubCard) EstimateBatch(dst []float64, qs []sets.Set) []float64 {
	return append(dst, c.ests[:len(qs)]...)
}
func (*stubCard) MaxID() uint32 { return math.MaxUint32 }

type stubIndex struct {
	core.IndexQuerier
	*stubInserter
	poss []int
}

func (x *stubIndex) LookupBatch(dst []int, qs []sets.Set, _ bool) []int {
	return append(dst, x.poss[:len(qs)]...)
}
func (*stubIndex) MaxID() uint32 { return math.MaxUint32 }

type stubFilter struct {
	core.MembershipQuerier
	*stubInserter
	ms []bool
}

func (f *stubFilter) ContainsBatch(qs []sets.Set, _ int) []bool { return f.ms[:len(qs)] }
func (*stubFilter) MaxID() uint32                               { return math.MaxUint32 }

// serve runs one request through h and returns the recorder.
func serve(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// randomEstimate draws from 1e-7 to 1e22 on a log scale, with integers,
// zero and the cut-overs between encoding/json's two float formats mixed
// in.
func randomEstimate(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		edges := []float64{0, 1, 0.1, 1e-6, 9.99999e-7, 1e-7, 1e21, 9.999999999999999e20, 123456789, 5e-324}
		return edges[rng.Intn(len(edges))]
	case 1:
		return float64(rng.Intn(100000))
	default:
		return (1 + 9*rng.Float64()) * math.Pow(10, float64(rng.Intn(30)-7))
	}
}

// TestResponseBytesMatchEncodingJSON pins the answer encoder to the bytes
// the handlers wrote through encoding/json: for random answers on all four
// endpoints, single and batch, the body must equal
// json.NewEncoder(&buf).Encode of the map the handlers used to build.
func TestResponseBytesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		batch := trial%2 == 1
		n := 1
		if batch {
			n = 1 + rng.Intn(10)
		}
		ests, poss, ms, ins := make([]float64, n), make([]int, n), make([]bool, n), make([]int, n)
		qs := make([][]uint32, n)
		for i := range qs {
			ests[i] = randomEstimate(rng)
			poss[i] = rng.Intn(1<<20) - 1
			if rng.Intn(3) == 0 {
				poss[i] = -1
			}
			ms[i] = rng.Intn(2) == 0
			ins[i] = rng.Intn(1 << 30)
			qs[i] = []uint32{uint32(rng.Intn(100))}
		}
		idx := &stubIndex{stubInserter: &stubInserter{ins}, poss: poss}
		st := Structures{
			Index:     idx,
			Estimator: &stubCard{stubInserter: &stubInserter{append([]int(nil), ins...)}, ests: ests},
			Filter:    &stubFilter{stubInserter: &stubInserter{append([]int(nil), ins...)}, ms: ms},
		}
		h := (&Server{st: st}).Handler()
		for _, ep := range []struct {
			path, one, many, single, plural string
			out                             func(i int) any
		}{
			{"/v1/card", "query", "queries", "estimate", "estimates", func(i int) any { return ests[i] }},
			{"/v1/index", "query", "queries", "position", "positions", func(i int) any { return poss[i] }},
			{"/v1/member", "query", "queries", "member", "members", func(i int) any { return ms[i] }},
			{"/v1/insert", "set", "sets", "position", "positions", func(i int) any { return ins[i] }},
		} {
			out := make([]any, n)
			for i := range out {
				out[i] = ep.out(i)
			}
			var want map[string]any
			var body []byte
			if batch {
				want = map[string]any{ep.plural: out}
				body, _ = json.Marshal(map[string]any{ep.many: qs})
			} else {
				want = map[string]any{ep.single: out[0]}
				body, _ = json.Marshal(map[string]any{ep.one: qs[0]})
			}
			if ep.path == "/v1/insert" {
				want["applied"] = []string{"index", "card", "member"}
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(want); err != nil {
				t.Fatal(err)
			}
			rec := serve(h, ep.path, string(body))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), buf.Bytes()) {
				t.Fatalf("%s %s: status %d body %q, want %q", ep.path, body, rec.Code, rec.Body.Bytes(), buf.Bytes())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s: Content-Type %q", ep.path, ct)
			}
		}
	}
}

// TestNonFiniteEstimateIs500 pins the fix for an estimate JSON cannot
// carry: the handler used to write the 200 header, fail to encode, and
// send an empty body. It must answer 500 with an error body and count the
// request as an error.
func TestNonFiniteEstimateIs500(t *testing.T) {
	errs := metricsFor("card").errors
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			body string
			ests []float64
		}{
			{`{"query":[1]}`, []float64{bad}},
			{`{"queries":[[1],[2]]}`, []float64{1, bad}},
		} {
			h := (&Server{st: Structures{Estimator: &stubCard{ests: tc.ests}}}).Handler()
			before := errs.Value()
			rec := serve(h, "/v1/card", tc.body)
			var er errorResponse
			if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
				t.Fatalf("estimate %v, body %s: status %d body %q, want 500 with an error", bad, tc.body, rec.Code, rec.Body.Bytes())
			}
			if got := errs.Value() - before; got != 1 {
				t.Fatalf("estimate %v, body %s: setlearn.card.errors moved by %d, want 1", bad, tc.body, got)
			}
		}
	}
}

// benchShapedBody returns a 64-query batch body shaped like the batch
// workload of cmd/setlearnbench: 1–3 ids per query below 1500.
func benchShapedBody() []byte {
	rng := rand.New(rand.NewSource(1))
	qs := make([][]uint32, 64)
	for i := range qs {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			qs[i] = append(qs[i], uint32(rng.Intn(1500)))
		}
	}
	body, _ := json.Marshal(map[string]any{"queries": qs})
	return body
}

// TestParseSetsAllocs pins the codec's allocation count: the arena and the
// span list, whatever the number of queries.
func TestParseSetsAllocs(t *testing.T) {
	body := benchShapedBody()
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := parseSets(body, "query", "queries", true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("parseSets on a 64-query body: %.0f allocs, want ≤ 4", allocs)
	}
}

func BenchmarkDecodeBody(b *testing.B) {
	body := benchShapedBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := parseSets(body, "query", "queries", true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandleBatch drives each query handler on a 64-query batch of the
// shared fixture through an httptest recorder: decode, validation, the
// structure's batch call and the encoder.
func BenchmarkHandleBatch(b *testing.B) {
	f := sharedFixture(b)
	h := (&Server{st: Structures{Index: f.idx, Estimator: f.est, Filter: f.mf}}).Handler()
	qs := make([][]uint32, 64)
	for i := range qs {
		qs[i] = f.queries[i%len(f.queries)]
	}
	body, _ := json.Marshal(map[string]any{"queries": qs})
	for _, path := range []string{"/v1/card", "/v1/index", "/v1/member"} {
		b.Run(path[len("/v1/"):], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := serve(h, path, string(body)); rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
