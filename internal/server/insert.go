package server

import (
	"fmt"
	"net/http"
	"time"

	"setlearn/internal/core"
)

// insertTarget pairs a mutable structure with its endpoint name and
// vocabulary ceiling.
type insertTarget struct {
	name  string
	ins   core.Inserter
	maxID func() uint32
}

// insertTargets lists the served structures that accept live inserts, in a
// fixed order (index first, so the reported position is the index's when it
// is loaded). A structure behind the core query interfaces is mutable iff it
// also implements core.Inserter — both the monoliths and the sharded
// containers do; a read-only wrapper simply is not offered the write.
func (s *Server) insertTargets() []insertTarget {
	var ts []insertTarget
	if s.st.Index != nil {
		if ins, ok := s.st.Index.(core.Inserter); ok {
			ts = append(ts, insertTarget{"index", ins, s.st.Index.MaxID})
		}
	}
	if s.st.Estimator != nil {
		if ins, ok := s.st.Estimator.(core.Inserter); ok {
			ts = append(ts, insertTarget{"card", ins, s.st.Estimator.MaxID})
		}
	}
	if s.st.Filter != nil {
		if ins, ok := s.st.Filter.(core.Inserter); ok {
			ts = append(ts, insertTarget{"member", ins, s.st.Filter.MaxID})
		}
	}
	return ts
}

// handleInsert serves POST /v1/insert: each set is appended to the logical
// collection of every mutable structure and is answerable the moment the
// response is written (served from the per-shard delta until a retrain
// absorbs it). The whole batch is validated before the first set is applied,
// so a rejected request mutates nothing.
//
// Element ids beyond the smallest vocabulary ceiling across the mutable
// structures are rejected with 400: every read endpoint refuses such ids, so
// a set carrying them would be unreachable over HTTP until a retrain raises
// the ceiling (the Go API accepts arbitrary ids and answers them exactly
// from the delta). Inserts during shutdown get 503 — a draining process must
// not accept writes the operator has no chance to persist.
func (s *Server) handleInsert() http.HandlerFunc {
	m := metricsFor("insert")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Add(1)
		if s.draining.Load() {
			m.errors.Add(1)
			writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: "server draining; insert rejected"})
			return
		}
		targets := s.insertTargets()
		if len(targets) == 0 {
			m.errors.Add(1)
			writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: "no mutable structure loaded"})
			return
		}
		ss, batch, _, apiErr := decodeRequest(w, r, "set", "sets", false)
		if apiErr != nil {
			m.errors.Add(1)
			writeJSON(w, apiErr.status, errorResponse{Error: apiErr.msg})
			return
		}
		limit := targets[0].maxID()
		for _, t := range targets[1:] {
			if l := t.maxID(); l < limit {
				limit = l
			}
		}
		// Sets are canonicalized (sorted ascending), so the last element is
		// the largest id.
		for i, q := range ss {
			if q[len(q)-1] > limit {
				m.errors.Add(1)
				writeJSON(w, http.StatusBadRequest, errorResponse{
					Error: fmt.Sprintf("set %d: element id %d exceeds model max id %d", i, q[len(q)-1], limit)})
				return
			}
		}
		m.queries.Add(int64(len(ss)))
		positions := make([]int, len(ss))
		for i, q := range ss {
			positions[i] = targets[0].ins.InsertSet(q)
			for _, t := range targets[1:] {
				t.ins.InsertSet(q)
			}
		}
		// applied comes first, in the sorted key order encoding/json gave a
		// map, so clients see the same bytes as before.
		b := append(make([]byte, 0, 64+12*len(ss)), `{"applied":[`...)
		for i, t := range targets {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, '"'), t.name...), '"')
		}
		field := "position"
		if batch {
			field = "positions"
		}
		b = appendField(append(b, "],"...), field, batch, positions, appendInt)
		writeAnswer(w, append(b, "}\n"...))
		m.observe(time.Since(start))
	}
}
