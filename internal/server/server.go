// Package server exposes the three trained structures of the paper — set
// index (§4.1), cardinality estimator (§4.2), membership filter (§4.3) —
// behind a concurrent HTTP JSON API, turning the one-shot CLI structures
// into a long-lived query service. Inference runs through
// deepsets.PredictorPool (one predictor per goroutine, lock-free), so
// parallel requests never serialize on model scratch; the hybrid auxiliary
// structures are internally guarded, making every endpoint safe under
// concurrent queries and updates.
//
// Endpoints (all POST, JSON):
//
//	/v1/card    {"query":[ids]} → {"estimate":x}   | {"queries":[[ids]…]} → {"estimates":[…]}
//	/v1/index   {"query":[ids]} → {"position":p}   | batch → {"positions":[…]}; "equal":true selects equality search
//	/v1/member  {"query":[ids]} → {"member":b}     | batch → {"members":[…]}
//	/v1/insert  {"set":[ids]}   → {"position":p}   | {"sets":[[ids]…]} → {"positions":[…]}; appends to every mutable structure
//	/v1/status  GET/POST → which structures are loaded, their bytes and φ-accel bytes, and which accept inserts
//	/healthz    liveness probe
//	/debug/vars expvar counters and latency histograms per endpoint
//	/debug/pprof/ runtime profiling
//
// The /v1 query and insert bodies are decoded and their answers encoded by
// the codec in wire.go, without encoding/json: parseSets documents the
// request grammar, and answers are byte-for-byte what encoding/json would
// write. Bodies are capped at 4 MiB. Errors answer {"error":"…"} with 400
// (malformed or out-of-vocabulary), 405 (not POST), 413 (body too large),
// 500 (an estimate that is NaN or infinite) or 503 (structure not loaded,
// or an insert while draining).
package server

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/deepsets"
)

// phiStatsVar adapts a structure's PhiStats method into the expvar Func
// shape: live accel counters when a fast path is enabled, {"mode":"off"}
// otherwise.
func phiStatsVar(stats func() (deepsets.AccelStats, bool)) func() any {
	return func() any {
		st, ok := stats()
		if !ok {
			return map[string]string{"mode": "off"}
		}
		return st
	}
}

// shardStatsVar adapts a served structure into the setlearn.shard.<name>
// expvar: the live per-shard slice for partitioned containers, an empty
// list for monolithic structures.
func shardStatsVar(st any) func() any {
	return func() any {
		if ss, ok := st.(core.ShardStatser); ok {
			return ss.ShardStats()
		}
		return []core.ShardStat{}
	}
}

// deltaStatsVar adapts a served structure into the setlearn.delta.<name>
// expvar: live write-side counters for mutable structures, {"mode":"static"}
// for read-only ones.
func deltaStatsVar(st any) func() any {
	return func() any {
		if ins, ok := st.(core.Inserter); ok {
			return ins.DeltaStats()
		}
		return map[string]string{"mode": "static"}
	}
}

// Structures bundles the trained structures to serve. The fields are the
// core query interfaces, so a monolithic build and a sharded container
// (internal/shard) serve identically; partitioned structures additionally
// publish per-shard stats under setlearn.shard.*. Any field may be nil; its
// endpoint then answers 503.
type Structures struct {
	Index     core.IndexQuerier
	Estimator core.CardinalityQuerier
	Filter    core.MembershipQuerier
}

// Config tunes the HTTP server.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after the context is canceled (default 10s).
	DrainTimeout time.Duration
	// ReadTimeout and WriteTimeout guard against slow clients holding
	// connections (defaults 10s / 30s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// RetrainStats, when set, is published as the setlearn.retrain.stats
	// expvar (the background trainer's counters). Nil renders
	// {"mode":"off"}.
	RetrainStats func() any
}

func (c *Config) applyDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
}

// Server serves the structures over HTTP.
type Server struct {
	st   Structures
	cfg  Config
	http *http.Server
	addr chan net.Addr // resolved listen address, buffered 1

	// draining flips once shutdown begins: reads keep draining, but
	// /v1/insert starts answering 503 so no write lands after the last
	// chance to persist it.
	draining atomic.Bool
}

// New assembles a server over st. At least one structure must be non-nil.
func New(st Structures, cfg Config) (*Server, error) {
	if st.Index == nil && st.Estimator == nil && st.Filter == nil {
		return nil, fmt.Errorf("server: no structures to serve")
	}
	if st.Estimator != nil {
		publishFunc("setlearn.card.phi", phiStatsVar(st.Estimator.PhiStats))
		publishFunc("setlearn.shard.card", shardStatsVar(st.Estimator))
		publishFunc("setlearn.delta.card", deltaStatsVar(st.Estimator))
	}
	if st.Index != nil {
		publishFunc("setlearn.index.phi", phiStatsVar(st.Index.PhiStats))
		publishFunc("setlearn.shard.index", shardStatsVar(st.Index))
		publishFunc("setlearn.delta.index", deltaStatsVar(st.Index))
	}
	if st.Filter != nil {
		publishFunc("setlearn.member.phi", phiStatsVar(st.Filter.PhiStats))
		publishFunc("setlearn.shard.member", shardStatsVar(st.Filter))
		publishFunc("setlearn.delta.member", deltaStatsVar(st.Filter))
	}
	cfg.applyDefaults()
	s := &Server{st: st, cfg: cfg, addr: make(chan net.Addr, 1)}
	publishFunc("setlearn.delta.size", func() any {
		total := 0
		for _, t := range s.insertTargets() {
			total += t.ins.DeltaStats().Pending
		}
		return total
	})
	retrain := cfg.RetrainStats
	if retrain == nil {
		retrain = func() any { return map[string]string{"mode": "off"} }
	}
	publishFunc("setlearn.retrain.stats", retrain)
	s.http = &http.Server{
		Addr:         cfg.Addr,
		Handler:      s.Handler(),
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
	}
	return s, nil
}

// Handler returns the full route table; usable directly under
// httptest.Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/card", s.handleCard())
	mux.HandleFunc("/v1/index", s.handleIndex())
	mux.HandleFunc("/v1/member", s.handleMember())
	mux.HandleFunc("/v1/insert", s.handleInsert())
	mux.HandleFunc("/v1/status", s.handleStatus())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	// expvar and pprof register themselves on http.DefaultServeMux; this
	// server uses its own mux, so mount them explicitly.
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Run listens on the configured address and serves until ctx is canceled,
// then drains in-flight requests for up to DrainTimeout before returning.
// It returns nil on a clean drain.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		// Close rather than abandon the address channel: a concurrent
		// Addr() call would otherwise block forever on a server that
		// never bound its listener.
		close(s.addr)
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.addr <- ln.Addr()

	errc := make(chan error, 1)
	go func() { errc <- s.http.Serve(ln) }()

	select {
	case err := <-errc:
		return fmt.Errorf("server: serve: %w", err)
	case <-ctx.Done():
	}
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := s.http.Shutdown(drainCtx); err != nil {
		s.http.Close()
		return fmt.Errorf("server: drain: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	return nil
}

// Addr reports the resolved listen address once Run has bound its listener;
// useful with ":0" configs in tests and scripts. It returns nil when Run
// failed to listen (the channel is closed instead of sent).
func (s *Server) Addr() net.Addr {
	a, ok := <-s.addr
	if !ok {
		return nil
	}
	s.addr <- a
	return a
}
