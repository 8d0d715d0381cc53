package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/server"
	"setlearn/internal/sets"
)

// layer names a span: the client's round trip, the server handler, or a call
// into one served structure.
type layer int

const (
	lClient layer = iota
	lHandler
	lCard
	lIndex
	lMember
	lInsert
	nLayers
)

var layerNames = [nLayers]string{"client", "handler", "card", "index", "member", "insert"}

// span is one timed call. Spans of one request share Req, carried from the
// client to the handler in the X-Bench-Req header. The server passes no
// request context into the structures, so structure spans carry neither a
// parent nor a request and are matched to requests only in aggregate.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
}

// maxSpans bounds the spans kept in memory for the span file; totals count
// every span.
const maxSpans = 50000

// totals aggregates spans per layer: busy time, calls, and items (queries or
// sets) the calls carried, plus request and response body bytes.
type totals struct {
	busy, calls, items  [nLayers]int64
	reqBytes, respBytes int64
}

// tracer records spans from timing decorators around each layer's public
// calls. Structure spans are recorded only while on is set (the timed window
// and the insert probe); client and handler spans only for requests sent
// with the X-Bench-Req header, which clients set inside the window.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	ids   atomic.Int64
	spans []span
	n     atomic.Int64

	busy, calls, items  [nLayers]atomic.Int64
	reqBytes, respBytes atomic.Int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, maxSpans)}
}

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(l layer, start, end time.Time, id, parent, req int64, items int) {
	t.busy[l].Add(int64(end.Sub(start)))
	t.calls[l].Add(1)
	t.items[l].Add(int64(items))
	if i := t.n.Add(1) - 1; i < maxSpans {
		t.spans[i] = span{ID: id, Name: layerNames[l], Start: int64(start.Sub(t.base)),
			End: int64(end.Sub(t.base)), Parent: parent, Req: req}
	}
}

// structSpan records a structure call when tracing is on.
func (t *tracer) structSpan(l layer, start time.Time, items int) {
	if t.on.Load() {
		t.record(l, start, time.Now(), t.newID(), 0, 0, items)
	}
}

func (t *tracer) snapshot() totals {
	var s totals
	for l := range s.busy {
		s.busy[l] = t.busy[l].Load()
		s.calls[l] = t.calls[l].Load()
		s.items[l] = t.items[l].Load()
	}
	s.reqBytes, s.respBytes = t.reqBytes.Load(), t.respBytes.Load()
	return s
}

// handler wraps the server's route table: each request that carries a
// request id gets a handler span whose parent is the client span, and its
// body bytes are counted.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		t.record(lHandler, start, time.Now(), t.newID(), req, req, 1)
		t.reqBytes.Add(r.ContentLength)
		t.respBytes.Add(cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrap puts a timing decorator around each served structure. The server
// answers every query through the batch methods and every insert through
// InsertSet, so those are the calls timed.
func (t *tracer) wrap(st server.Structures) (server.Structures, error) {
	ie, ok1 := st.Estimator.(core.Inserter)
	ix, ok2 := st.Index.(core.Inserter)
	im, ok3 := st.Filter.(core.Inserter)
	if !ok1 || !ok2 || !ok3 {
		return st, fmt.Errorf("trace: every served structure must accept inserts")
	}
	return server.Structures{
		Estimator: tracedEstimator{st.Estimator, tracedInserter{ie, t}},
		Index:     tracedIndex{st.Index, tracedInserter{ix, t}},
		Filter:    tracedFilter{st.Filter, tracedInserter{im, t}},
	}, nil
}

type tracedInserter struct {
	core.Inserter
	t *tracer
}

func (d tracedInserter) InsertSet(s sets.Set) int {
	start := time.Now()
	defer d.t.structSpan(lInsert, start, 1)
	return d.Inserter.InsertSet(s)
}

type tracedEstimator struct {
	core.CardinalityQuerier
	tracedInserter
}

func (d tracedEstimator) EstimateBatch(dst []float64, qs []sets.Set) []float64 {
	start := time.Now()
	defer d.t.structSpan(lCard, start, len(qs))
	return d.CardinalityQuerier.EstimateBatch(dst, qs)
}

type tracedIndex struct {
	core.IndexQuerier
	tracedInserter
}

func (d tracedIndex) LookupBatch(dst []int, qs []sets.Set, equal bool) []int {
	start := time.Now()
	defer d.t.structSpan(lIndex, start, len(qs))
	return d.IndexQuerier.LookupBatch(dst, qs, equal)
}

type tracedFilter struct {
	core.MembershipQuerier
	tracedInserter
}

func (d tracedFilter) ContainsBatch(qs []sets.Set, workers int) []bool {
	start := time.Now()
	defer d.t.structSpan(lMember, start, len(qs))
	return d.MembershipQuerier.ContainsBatch(qs, workers)
}

// writeSpans writes the kept spans as JSON.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n := min(t.n.Load(), maxSpans)
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(struct {
		BaseUnixNS int64  `json:"base_unix_ns"`
		Recorded   int64  `json:"recorded"`
		Spans      []span `json:"spans"`
	}{t.base.UnixNano(), t.n.Load(), t.spans[:n]}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
