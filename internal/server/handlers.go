package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"setlearn/internal/sets"
)

// maxBatch bounds the number of queries a single batched request may carry;
// larger workloads should be split client-side so one request cannot
// monopolize the server.
const maxBatch = 4096

// queryRequest is the shared request body of every /v1 endpoint. Exactly
// one of Query (single) or Queries (batch) must be present. Equal selects
// the §4.1 equality search and is honored by /v1/index only.
type queryRequest struct {
	Query   []uint32   `json:"query,omitempty"`
	Queries [][]uint32 `json:"queries,omitempty"`
	Equal   bool       `json:"equal,omitempty"`
}

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

// decodeRequest parses and validates a request body into canonical query
// sets. It returns the queries and whether the request was a batch.
func decodeRequest(r *http.Request) (*queryRequest, []sets.Set, bool, *apiError) {
	if r.Method != http.MethodPost {
		return nil, nil, false, &apiError{
			status: http.StatusMethodNotAllowed,
			msg:    fmt.Sprintf("method %s not allowed; POST a JSON body", r.Method),
		}
	}
	var req queryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, false, badRequest("bad request body: %v", err)
	}
	switch {
	case req.Query != nil && req.Queries != nil:
		return nil, nil, false, badRequest(`provide exactly one of "query" or "queries"`)
	case req.Query != nil:
		if len(req.Query) == 0 {
			return nil, nil, false, badRequest("query must be non-empty")
		}
		return &req, []sets.Set{sets.New(req.Query...)}, false, nil
	case req.Queries != nil:
		if len(req.Queries) == 0 {
			return nil, nil, false, badRequest("queries must be non-empty")
		}
		if len(req.Queries) > maxBatch {
			return nil, nil, false, badRequest("batch of %d exceeds limit %d", len(req.Queries), maxBatch)
		}
		qs := make([]sets.Set, len(req.Queries))
		for i, ids := range req.Queries {
			if len(ids) == 0 {
				return nil, nil, false, badRequest("query %d must be non-empty", i)
			}
			qs[i] = sets.New(ids...)
		}
		return &req, qs, true, nil
	default:
		return nil, nil, false, badRequest(`provide "query" (single) or "queries" (batch)`)
	}
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
// reach (and can never panic) the inference path; answerBatch resolves the
// whole validated batch through the fused PredictBatch fast path.
func (s *Server) handleQuery(name, singleField, batchField string, ready func() bool, maxID func() uint32, answerBatch func(qs []sets.Set, equal bool) []any) http.HandlerFunc {
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
		req, qs, batch, apiErr := decodeRequest(r)
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
		out := answerBatch(qs, req.Equal)
		if batch {
			writeJSON(w, http.StatusOK, map[string]any{batchField: out})
		} else {
			writeJSON(w, http.StatusOK, map[string]any{singleField: out[0]})
		}
		m.observe(time.Since(start))
	}
}

func (s *Server) handleCard() http.HandlerFunc {
	return s.handleQuery("card", "estimate", "estimates",
		func() bool { return s.st.Estimator != nil },
		func() uint32 { return s.st.Estimator.MaxID() },
		func(qs []sets.Set, _ bool) []any {
			ests := s.st.Estimator.EstimateBatch(nil, qs)
			out := make([]any, len(ests))
			for i, v := range ests {
				out[i] = v
			}
			return out
		})
}

func (s *Server) handleIndex() http.HandlerFunc {
	return s.handleQuery("index", "position", "positions",
		func() bool { return s.st.Index != nil },
		func() uint32 { return s.st.Index.MaxID() },
		func(qs []sets.Set, equal bool) []any {
			poss := s.st.Index.LookupBatch(nil, qs, equal)
			out := make([]any, len(poss))
			for i, v := range poss {
				out[i] = v
			}
			return out
		})
}

func (s *Server) handleMember() http.HandlerFunc {
	return s.handleQuery("member", "member", "members",
		func() bool { return s.st.Filter != nil },
		func() uint32 { return s.st.Filter.MaxID() },
		func(qs []sets.Set, _ bool) []any {
			// One worker: HTTP concurrency already fans out across requests,
			// and the serial path batches model evaluations.
			ms := s.st.Filter.ContainsBatch(qs, 1)
			out := make([]any, len(ms))
			for i, v := range ms {
				out[i] = v
			}
			return out
		})
}

// statusResponse describes the serving state for /v1/status.
type statusResponse struct {
	Structures map[string]bool `json:"structures"` // endpoint name → loaded
	Mutable    []string        `json:"mutable"`    // structures /v1/insert appends to
	Endpoints  []string        `json:"endpoints"`
}

func (s *Server) handleStatus() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mutable := []string{}
		for _, t := range s.insertTargets() {
			mutable = append(mutable, t.name)
		}
		writeJSON(w, http.StatusOK, statusResponse{
			Structures: map[string]bool{
				"card":   s.st.Estimator != nil,
				"index":  s.st.Index != nil,
				"member": s.st.Filter != nil,
			},
			Mutable:   mutable,
			Endpoints: []string{"/v1/card", "/v1/index", "/v1/member", "/v1/insert", "/v1/status", "/healthz", "/debug/vars", "/debug/pprof/"},
		})
	}
}
