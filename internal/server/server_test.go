package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// fixture bundles trained structures, a query workload, and the
// single-threaded ground truth (direct in-process answers) every HTTP test
// compares against. Building the three structures costs seconds, so one
// fixture is shared by the whole package.
type fixture struct {
	c   *sets.Collection
	idx *core.SetIndex
	est *core.CardinalityEstimator
	mf  *core.MembershipFilter

	queries   []sets.Set
	positions []int
	estimates []float64
	members   []bool
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func sharedFixture(tb testing.TB) *fixture {
	tb.Helper()
	fixOnce.Do(func() {
		model := core.ModelOptions{
			EmbedDim: 4, PhiHidden: []int{16}, PhiOut: 16, RhoHidden: []int{32},
			Epochs: 10, LR: 0.01, Workers: 1, Seed: 3,
		}
		c := dataset.GenerateSD(300, 40, 77)
		f := &fixture{c: c}
		if f.idx, fixErr = core.BuildIndex(c, core.IndexOptions{
			Model: model, MaxSubset: 2, Percentile: 90,
		}); fixErr != nil {
			return
		}
		if f.est, fixErr = core.BuildEstimator(c, core.EstimatorOptions{
			Model: model, MaxSubset: 2, Percentile: 90,
		}); fixErr != nil {
			return
		}
		if f.mf, fixErr = core.BuildMembershipFilter(c, core.FilterOptions{
			Model: model, MaxSubset: 2,
		}); fixErr != nil {
			return
		}
		// Mixed workload: trained subsets and full sets. Queries with
		// out-of-vocabulary ids are excluded — the server rejects them with
		// 400 before inference (TestOutOfVocabularyRejected).
		st := dataset.CollectSubsets(c, 2)
		for i, k := range st.Keys {
			if i%3 == 0 {
				f.queries = append(f.queries, st.ByKey[k].Set)
			}
		}
		for i := 0; i < 20; i++ {
			f.queries = append(f.queries, c.At(i*7%c.Len()))
		}
		for _, q := range f.queries {
			f.positions = append(f.positions, f.idx.Lookup(q))
			f.estimates = append(f.estimates, f.est.Estimate(q))
			f.members = append(f.members, f.mf.Contains(q))
		}
		fix = f
	})
	if fixErr != nil {
		tb.Fatalf("building fixture: %v", fixErr)
	}
	return fix
}

func newTestServer(tb testing.TB, st Structures) *httptest.Server {
	tb.Helper()
	s, err := New(st, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return ts
}

func fullServer(tb testing.TB) (*fixture, *httptest.Server) {
	f := sharedFixture(tb)
	return f, newTestServer(tb, Structures{Index: f.idx, Estimator: f.est, Filter: f.mf})
}

// postJSON posts body to url and decodes the JSON response into out,
// returning the HTTP status.
func postJSON(tb testing.TB, client *http.Client, url string, body, out any) int {
	tb.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		tb.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tb.Fatalf("decode %s response: %v", url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

type cardResp struct {
	Estimate  *float64  `json:"estimate"`
	Estimates []float64 `json:"estimates"`
}

type indexResp struct {
	Position  *int  `json:"position"`
	Positions []int `json:"positions"`
}

type memberResp struct {
	Member  *bool  `json:"member"`
	Members []bool `json:"members"`
}

func idsOf(q sets.Set) []uint32 { return []uint32(q) }

func TestSingleQueriesMatchDirectCalls(t *testing.T) {
	f, ts := fullServer(t)
	for i, q := range f.queries {
		if i%5 != 0 { // sample: each request is a round trip
			continue
		}
		var cr cardResp
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/card", map[string]any{"query": idsOf(q)}, &cr); code != 200 {
			t.Fatalf("card status %d", code)
		}
		if cr.Estimate == nil || *cr.Estimate != f.estimates[i] {
			t.Fatalf("card(%v) = %v, direct call %v", q, cr.Estimate, f.estimates[i])
		}
		var ir indexResp
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/index", map[string]any{"query": idsOf(q)}, &ir); code != 200 {
			t.Fatalf("index status %d", code)
		}
		if ir.Position == nil || *ir.Position != f.positions[i] {
			t.Fatalf("index(%v) = %v, direct call %d", q, ir.Position, f.positions[i])
		}
		var mr memberResp
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/member", map[string]any{"query": idsOf(q)}, &mr); code != 200 {
			t.Fatalf("member status %d", code)
		}
		if mr.Member == nil || *mr.Member != f.members[i] {
			t.Fatalf("member(%v) = %v, direct call %v", q, mr.Member, f.members[i])
		}
	}
}

func TestBatchQueriesMatchDirectCalls(t *testing.T) {
	f, ts := fullServer(t)
	batch := make([][]uint32, len(f.queries))
	for i, q := range f.queries {
		batch[i] = idsOf(q)
	}
	var cr cardResp
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/card", map[string]any{"queries": batch}, &cr); code != 200 {
		t.Fatalf("card status %d", code)
	}
	var ir indexResp
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/index", map[string]any{"queries": batch}, &ir); code != 200 {
		t.Fatalf("index status %d", code)
	}
	var mr memberResp
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/member", map[string]any{"queries": batch}, &mr); code != 200 {
		t.Fatalf("member status %d", code)
	}
	if len(cr.Estimates) != len(batch) || len(ir.Positions) != len(batch) || len(mr.Members) != len(batch) {
		t.Fatalf("batch sizes: %d/%d/%d, want %d",
			len(cr.Estimates), len(ir.Positions), len(mr.Members), len(batch))
	}
	for i := range batch {
		if cr.Estimates[i] != f.estimates[i] {
			t.Fatalf("batch card[%d] = %v, direct %v", i, cr.Estimates[i], f.estimates[i])
		}
		if ir.Positions[i] != f.positions[i] {
			t.Fatalf("batch index[%d] = %d, direct %d", i, ir.Positions[i], f.positions[i])
		}
		if mr.Members[i] != f.members[i] {
			t.Fatalf("batch member[%d] = %v, direct %v", i, mr.Members[i], f.members[i])
		}
	}
}

func TestIndexEqualitySearch(t *testing.T) {
	f, ts := fullServer(t)
	for i := 0; i < 10; i++ {
		q := f.c.At(i * 11 % f.c.Len())
		var ir indexResp
		code := postJSON(t, ts.Client(), ts.URL+"/v1/index",
			map[string]any{"query": idsOf(q), "equal": true}, &ir)
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		if want := f.idx.LookupEqual(q); ir.Position == nil || *ir.Position != want {
			t.Fatalf("equal(%v) = %v, direct call %d", q, ir.Position, want)
		}
	}
}

// TestEndpointPermutationInvariance is the server-level half of the
// permutation-invariance property: the order ids arrive in the JSON body
// must never change any endpoint's answer.
func TestEndpointPermutationInvariance(t *testing.T) {
	f, ts := fullServer(t)
	rng := rand.New(rand.NewSource(99))
	for i, q := range f.queries {
		if i%7 != 0 || len(q) < 2 {
			continue
		}
		shuffled := append([]uint32(nil), q...)
		rng.Shuffle(len(shuffled), func(a, b int) {
			shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
		})
		var cr cardResp
		postJSON(t, ts.Client(), ts.URL+"/v1/card", map[string]any{"query": shuffled}, &cr)
		if cr.Estimate == nil || *cr.Estimate != f.estimates[i] {
			t.Fatalf("card not permutation invariant for %v vs %v", shuffled, q)
		}
		var ir indexResp
		postJSON(t, ts.Client(), ts.URL+"/v1/index", map[string]any{"query": shuffled}, &ir)
		if ir.Position == nil || *ir.Position != f.positions[i] {
			t.Fatalf("index not permutation invariant for %v vs %v", shuffled, q)
		}
		var mr memberResp
		postJSON(t, ts.Client(), ts.URL+"/v1/member", map[string]any{"query": shuffled}, &mr)
		if mr.Member == nil || *mr.Member != f.members[i] {
			t.Fatalf("member not permutation invariant for %v vs %v", shuffled, q)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := fullServer(t)
	url := ts.URL + "/v1/card"
	post := func(body string) int {
		resp, err := ts.Client().Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", `{"query":`, 400},
		{"empty query", `{"query":[]}`, 400},
		{"empty batch", `{"queries":[]}`, 400},
		{"empty inner query", `{"queries":[[1],[]]}`, 400},
		{"both forms", `{"query":[1],"queries":[[2]]}`, 400},
		{"neither form", `{}`, 400},
		{"unknown field", `{"q":[1]}`, 400},
		{"ok", `{"query":[1]}`, 200},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}

	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	oversize := map[string]any{"queries": make([][]uint32, maxBatch+1)}
	for i := range oversize["queries"].([][]uint32) {
		oversize["queries"].([][]uint32)[i] = []uint32{1}
	}
	if code := postJSON(t, ts.Client(), url, oversize, nil); code != 400 {
		t.Errorf("oversize batch: status %d, want 400", code)
	}
}

// TestOutOfVocabularyRejected pins the validation contract: element ids the
// model cannot represent are rejected with 400 before they reach inference,
// for single and batch requests on every endpoint.
func TestOutOfVocabularyRejected(t *testing.T) {
	f, ts := fullServer(t)
	oov := f.c.MaxID() + 1
	for _, path := range []string{"/v1/card", "/v1/index", "/v1/member"} {
		var er errorResponse
		if code := postJSON(t, ts.Client(), ts.URL+path,
			map[string]any{"query": []uint32{oov}}, &er); code != 400 {
			t.Fatalf("%s single OOV: status %d, want 400", path, code)
		}
		if !strings.Contains(er.Error, fmt.Sprint(oov)) {
			t.Fatalf("%s: error %q does not name the offending id %d", path, er.Error, oov)
		}
		// A batch is rejected whole even when only one query is bad.
		if code := postJSON(t, ts.Client(), ts.URL+path,
			map[string]any{"queries": [][]uint32{{1}, {2, oov}}}, nil); code != 400 {
			t.Fatalf("%s batch with OOV: status %d, want 400", path, code)
		}
		// In-vocabulary ids still pass after the rejections.
		if code := postJSON(t, ts.Client(), ts.URL+path,
			map[string]any{"query": []uint32{1}}, nil); code != 200 {
			t.Fatalf("%s after OOV rejection: status %d, want 200", path, code)
		}
	}
}

func TestUnloadedStructureAnswers503(t *testing.T) {
	f := sharedFixture(t)
	ts := newTestServer(t, Structures{Filter: f.mf}) // member only
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/card", map[string]any{"query": []uint32{1}}, nil); code != 503 {
		t.Fatalf("card without estimator: status %d, want 503", code)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/index", map[string]any{"query": []uint32{1}}, nil); code != 503 {
		t.Fatalf("index without index: status %d, want 503", code)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/member", map[string]any{"query": []uint32{1}}, nil); code != 200 {
		t.Fatalf("member: status %d, want 200", code)
	}
}

func TestNewRejectsEmptyStructures(t *testing.T) {
	if _, err := New(Structures{}, Config{}); err == nil {
		t.Fatal("expected error for no structures")
	}
}

func TestStatusHealthAndDebugEndpoints(t *testing.T) {
	_, ts := fullServer(t)
	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	code, body := get("/v1/status")
	if code != 200 {
		t.Fatalf("/v1/status: %d", code)
	}
	var st statusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"card", "index", "member"} {
		if !st.Structures[name] {
			t.Fatalf("/v1/status reports %s unloaded: %s", name, body)
		}
	}

	// A request so the expvar counters are non-zero, then verify they are
	// exported with the latency histogram.
	postJSON(t, ts.Client(), ts.URL+"/v1/card", map[string]any{"query": []uint32{1}}, nil)
	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	for _, key := range []string{
		"setlearn.card.requests", "setlearn.card.errors", "setlearn.card.queries",
		"setlearn.card.latency_us", "setlearn.index.requests", "setlearn.member.requests",
		"setlearn.card.phi", "setlearn.index.phi", "setlearn.member.phi",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %s", key)
		}
	}
	// The fixture universe is tiny, so the auto-enabled fast path is the
	// full φ-table.
	var phi struct {
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(vars["setlearn.card.phi"], &phi); err != nil || phi.Mode != "table" {
		t.Errorf("setlearn.card.phi mode = %q (%v), want \"table\"", phi.Mode, err)
	}
	var requests int64
	if err := json.Unmarshal(vars["setlearn.card.requests"], &requests); err != nil || requests < 1 {
		t.Errorf("setlearn.card.requests = %d (%v), want ≥ 1", requests, err)
	}
	var hist map[string]int64
	if err := json.Unmarshal(vars["setlearn.card.latency_us"], &hist); err != nil {
		t.Fatalf("latency histogram not a map: %v", err)
	}
	if hist["count"] < 1 || hist["inf"] < 1 {
		t.Errorf("latency histogram unpopulated: %v", hist)
	}

	if code, body = get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d %q", code, body)
	}
}

// TestRunServesAndDrains exercises the real listener path: bind :0, serve a
// request, cancel the context mid-flight, and require a clean drain.
func TestRunServesAndDrains(t *testing.T) {
	f := sharedFixture(t)
	s, err := New(Structures{Estimator: f.est},
		Config{Addr: "127.0.0.1:0", DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	url := fmt.Sprintf("http://%s/v1/card", s.Addr())
	var cr cardResp
	if code := postJSON(t, http.DefaultClient, url, map[string]any{"query": []uint32{1, 2}}, &cr); code != 200 {
		t.Fatalf("status %d", code)
	}
	if cr.Estimate == nil || *cr.Estimate != f.est.Estimate(sets.New(1, 2)) {
		t.Fatalf("served estimate %v diverges from direct call", cr.Estimate)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not drain within 10s of cancel")
	}
	if _, err := http.Post(url, "application/json", strings.NewReader(`{"query":[1]}`)); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// TestAddrUnblocksWhenListenFails is a regression test for a stuck-goroutine
// bug: when net.Listen failed, Run returned without touching s.addr, so any
// goroutine already blocked in Addr() hung forever. Run must close the
// channel on the error path and Addr must report the failure as nil.
func TestAddrUnblocksWhenListenFails(t *testing.T) {
	f := sharedFixture(t)
	// Port 99999 is out of range, so the listen always fails.
	s, err := New(Structures{Estimator: f.est}, Config{Addr: "127.0.0.1:99999"})
	if err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan net.Addr, 1)
	go func() { addrCh <- s.Addr() }()

	if err := s.Run(context.Background()); err == nil {
		t.Fatal("Run succeeded on an unbindable address")
	}

	select {
	case a := <-addrCh:
		if a != nil {
			t.Fatalf("Addr() = %v, want nil after failed listen", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Addr() still blocked 5s after Run failed to listen")
	}
}
