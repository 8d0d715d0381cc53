package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"setlearn/internal/deepsets"
	"setlearn/internal/sets"
)

// maxBatch bounds the number of queries a single batched request may carry;
// larger workloads should be split client-side so one request cannot
// monopolize the server.
const maxBatch = 4096

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// apiError carries an HTTP status through the handler plumbing.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleQuery adapts one structure-specific batch answer function into an
// HTTP handler with shared decoding, validation, metrics, and error
// handling. singleField and batchField name the JSON response keys; maxID
// bounds the element ids the structure's model accepts — queries carrying a
// larger id are rejected with 400 up front, so out-of-vocabulary ids never
// reach (and can never panic) the inference path; answer resolves the whole
// validated batch through the fused PredictBatch fast path and appends the
// response field to b with appendField, or fails before any byte is sent.
func (s *Server) handleQuery(name, singleField, batchField string, ready func() bool, maxID func() uint32,
	answer func(b []byte, field string, batch bool, qs []sets.Set, equal bool) ([]byte, *apiError)) http.HandlerFunc {
	m := metricsFor(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Add(1)
		if !ready() {
			m.errors.Add(1)
			writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: name + " structure not loaded"})
			return
		}
		qs, batch, equal, apiErr := decodeRequest(w, r, "query", "queries", true)
		if apiErr != nil {
			m.errors.Add(1)
			writeJSON(w, apiErr.status, errorResponse{Error: apiErr.msg})
			return
		}
		// Queries are canonicalized (sorted ascending), so the last element
		// is the largest id in the set.
		limit := maxID()
		for i, q := range qs {
			if q[len(q)-1] > limit {
				m.errors.Add(1)
				writeJSON(w, http.StatusBadRequest, errorResponse{
					Error: fmt.Sprintf("query %d: element id %d exceeds model max id %d", i, q[len(q)-1], limit)})
				return
			}
		}
		m.queries.Add(int64(len(qs)))
		field := singleField
		if batch {
			field = batchField
		}
		b, apiErr := answer(append(make([]byte, 0, 32+24*len(qs)), '{'), field, batch, qs, equal)
		if apiErr != nil {
			m.errors.Add(1)
			writeJSON(w, apiErr.status, errorResponse{Error: apiErr.msg})
			return
		}
		writeAnswer(w, append(b, "}\n"...))
		m.observe(time.Since(start))
	}
}

func (s *Server) handleCard() http.HandlerFunc {
	return s.handleQuery("card", "estimate", "estimates",
		func() bool { return s.st.Estimator != nil },
		func() uint32 { return s.st.Estimator.MaxID() },
		func(b []byte, field string, batch bool, qs []sets.Set, _ bool) ([]byte, *apiError) {
			ests := s.st.Estimator.EstimateBatch(nil, qs)
			// JSON has no NaN or infinity; such an estimate is a server
			// fault, reported before the 200 header is written.
			for i, v := range ests {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, &apiError{status: http.StatusInternalServerError,
						msg: fmt.Sprintf("query %d: estimate %v is not finite", i, v)}
				}
			}
			return appendField(b, field, batch, ests, appendFloat), nil
		})
}

func (s *Server) handleIndex() http.HandlerFunc {
	return s.handleQuery("index", "position", "positions",
		func() bool { return s.st.Index != nil },
		func() uint32 { return s.st.Index.MaxID() },
		func(b []byte, field string, batch bool, qs []sets.Set, equal bool) ([]byte, *apiError) {
			return appendField(b, field, batch, s.st.Index.LookupBatch(nil, qs, equal), appendInt), nil
		})
}

func (s *Server) handleMember() http.HandlerFunc {
	return s.handleQuery("member", "member", "members",
		func() bool { return s.st.Filter != nil },
		func() uint32 { return s.st.Filter.MaxID() },
		func(b []byte, field string, batch bool, qs []sets.Set, _ bool) ([]byte, *apiError) {
			// One worker: HTTP concurrency already fans out across requests,
			// and the serial path batches model evaluations.
			return appendField(b, field, batch, s.st.Filter.ContainsBatch(qs, 1), strconv.AppendBool), nil
		})
}

// statusResponse describes the serving state for /v1/status.
type statusResponse struct {
	Structures map[string]bool       `json:"structures"` // endpoint name → loaded
	Bytes      map[string]bytesStats `json:"bytes"`      // loaded structures only
	Mutable    []string              `json:"mutable"`    // structures /v1/insert appends to
	Endpoints  []string              `json:"endpoints"`
}

// bytesStats is one loaded structure's memory: SizeBytes (model weights at
// float32, aux structures, delta) beside the resident bytes of its φ accel,
// which SizeBytes does not count.
type bytesStats struct {
	Size  int `json:"size"`  // SizeBytes()
	Accel int `json:"accel"` // PhiStats().Bytes; 0 when inference runs uncached
}

// structureBytes reads one structure's bytesStats.
func structureBytes(size func() int, phi func() (deepsets.AccelStats, bool)) bytesStats {
	st, _ := phi()
	return bytesStats{Size: size(), Accel: st.Bytes}
}

func (s *Server) handleStatus() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mutable := []string{}
		for _, t := range s.insertTargets() {
			mutable = append(mutable, t.name)
		}
		mem := map[string]bytesStats{}
		if e := s.st.Estimator; e != nil {
			mem["card"] = structureBytes(e.SizeBytes, e.PhiStats)
		}
		if x := s.st.Index; x != nil {
			mem["index"] = structureBytes(x.SizeBytes, x.PhiStats)
		}
		if f := s.st.Filter; f != nil {
			mem["member"] = structureBytes(f.SizeBytes, f.PhiStats)
		}
		writeJSON(w, http.StatusOK, statusResponse{
			Structures: map[string]bool{
				"card":   s.st.Estimator != nil,
				"index":  s.st.Index != nil,
				"member": s.st.Filter != nil,
			},
			Bytes:     mem,
			Mutable:   mutable,
			Endpoints: []string{"/v1/card", "/v1/index", "/v1/member", "/v1/insert", "/v1/status", "/healthz", "/debug/vars", "/debug/pprof/"},
		})
	}
}
