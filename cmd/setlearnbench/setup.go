package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/server"
	"setlearn/internal/sets"
	"setlearn/internal/shard"
)

// setupSteps times one set-up: the steps setlearn and setlearnd take from a
// collection to a bound listener.
type setupSteps struct {
	generate, buildCard, buildIndex, buildMember time.Duration
	save, load, fastpath, serve, total           time.Duration
	bytes                                        int // saved structure bytes
}

// served is one set-up's result. raw holds the loaded structures; the server
// answers from the same structures, wrapped when tracing or injecting faults.
type served struct {
	coll  *sets.Collection
	blobs [3][]byte // the saved estimator, index and filter
	raw   server.Structures
	st    server.Structures
	mono  *monolith // the concrete structures for the layer probe; nil when sharded
	addr  string
	stop  func() error
	steps setupSteps
}

type monolith struct {
	est *core.CardinalityEstimator
	idx *core.SetIndex
	flt *core.MembershipFilter
}

// fastPath is setlearnd's default φ configuration (-phi-table with
// -phi-cache-mb 64), re-applied after load as the daemon does.
var fastPath = core.FastPathOptions{TableBudgetBytes: 64 << 20, CacheBytes: 64 << 20}

// setUp generates the collection, builds the three structures, round-trips
// them through Save and Load and serves them on a loopback port.
func setUp(cfg config, w workload, tr *tracer) (*served, error) {
	var st setupSteps
	start := time.Now()
	last := start
	lap := func(d *time.Duration) {
		now := time.Now()
		*d = now.Sub(last)
		last = now
	}

	c := dataset.GenerateRW(cfg.sets, cfg.vocab, dataSeed)
	lap(&st.generate)

	// The setlearn CLI defaults, with Workers pinned so training, and with
	// it every accuracy metric, repeats bit for bit.
	mo := core.ModelOptions{Compressed: true, Epochs: cfg.epochs, Workers: 2, Seed: 1}
	eo := core.EstimatorOptions{Model: mo, MaxSubset: cfg.maxSubset, Percentile: 90}
	xo := core.IndexOptions{Model: mo, MaxSubset: cfg.maxSubset, Percentile: 90}
	fo := core.FilterOptions{Model: mo, MaxSubset: cfg.maxSubset}
	so := shard.Options{Shards: w.shards, Parallelism: 2, MeasureBounds: true}

	var built [3]interface{ Save(io.Writer) error }
	var err error
	if w.shards == 0 {
		built[0], err = core.BuildEstimator(c, eo)
	} else {
		built[0], err = shard.BuildShardedEstimator(c, so, eo)
	}
	if err != nil {
		return nil, fmt.Errorf("build estimator: %w", err)
	}
	lap(&st.buildCard)
	if w.shards == 0 {
		built[1], err = core.BuildIndex(c, xo)
	} else {
		built[1], err = shard.BuildShardedIndex(c, so, xo)
	}
	if err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	lap(&st.buildIndex)
	if w.shards == 0 {
		built[2], err = core.BuildMembershipFilter(c, fo)
	} else {
		built[2], err = shard.BuildShardedFilter(c, so, fo)
	}
	if err != nil {
		return nil, fmt.Errorf("build filter: %w", err)
	}
	lap(&st.buildMember)

	var blobs [3][]byte
	for i, b := range built {
		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			return nil, fmt.Errorf("save: %w", err)
		}
		blobs[i] = buf.Bytes()
		st.bytes += buf.Len()
	}
	lap(&st.save)

	s, err := open(c, blobs, cfg, w, tr, &st, lap)
	if err != nil {
		return nil, err
	}
	st.total = last.Sub(start)
	s.steps = st
	return s, nil
}

// reopen serves a fresh copy of s's structures, loaded again from the saved
// bytes, so none of the inserts s has taken since.
func (s *served) reopen(cfg config, w workload, tr *tracer) (*served, error) {
	var st setupSteps
	return open(s.coll, s.blobs, cfg, w, tr, &st, func(*time.Duration) {})
}

// open loads the saved structures, applies setlearnd's φ defaults and serves
// them on a loopback port; lap times the steps into st.
func open(c *sets.Collection, blobs [3][]byte, cfg config, w workload, tr *tracer, st *setupSteps, lap func(*time.Duration)) (*served, error) {
	s := &served{coll: c, blobs: blobs}
	var err error
	if w.shards == 0 {
		s.mono, err = loadMonolith(blobs, c)
		if err == nil {
			s.raw = server.Structures{Estimator: s.mono.est, Index: s.mono.idx, Filter: s.mono.flt}
		}
	} else {
		s.raw, err = loadSharded(blobs, c)
	}
	if err != nil {
		return nil, err
	}
	lap(&st.load)

	s.raw.Estimator.EnableFastPath(fastPath)
	s.raw.Index.EnableFastPath(fastPath)
	s.raw.Filter.EnableFastPath(fastPath)
	lap(&st.fastpath)

	s.st = s.raw
	if cfg.wrapIndex != nil {
		s.st.Index = cfg.wrapIndex(s.st.Index)
	}
	if tr != nil {
		if s.st, err = tr.wrap(s.st); err != nil {
			return nil, err
		}
	}
	if s.addr, s.stop, err = serve(s.st, tr); err != nil {
		return nil, err
	}
	lap(&st.serve)
	return s, nil
}

// prefill inserts sets straight into the loaded structures, as earlier
// writes to setlearnd would have, and returns the positions they took.
func (s *served) prefill(ss []sets.Set) []insertRecord {
	ins := []core.Inserter{
		s.raw.Index.(core.Inserter), s.raw.Estimator.(core.Inserter), s.raw.Filter.(core.Inserter),
	}
	log := make([]insertRecord, len(ss))
	for i, set := range ss {
		log[i] = insertRecord{pos: ins[0].InsertSet(set), set: set}
		for _, in := range ins[1:] {
			in.InsertSet(set)
		}
	}
	return log
}

func loadMonolith(blobs [3][]byte, c *sets.Collection) (*monolith, error) {
	est, err := core.LoadCardinalityEstimator(bytes.NewReader(blobs[0]))
	if err != nil {
		return nil, err
	}
	idx, err := core.LoadIndex(bytes.NewReader(blobs[1]), c)
	if err != nil {
		return nil, err
	}
	flt, err := core.LoadMembershipFilter(bytes.NewReader(blobs[2]))
	if err != nil {
		return nil, err
	}
	return &monolith{est, idx, flt}, nil
}

func loadSharded(blobs [3][]byte, c *sets.Collection) (server.Structures, error) {
	est, err := shard.LoadShardedEstimator(bytes.NewReader(blobs[0]))
	if err != nil {
		return server.Structures{}, err
	}
	idx, err := shard.LoadShardedIndex(bytes.NewReader(blobs[1]), c)
	if err != nil {
		return server.Structures{}, err
	}
	flt, err := shard.LoadShardedFilter(bytes.NewReader(blobs[2]))
	if err != nil {
		return server.Structures{}, err
	}
	return server.Structures{Estimator: est, Index: idx, Filter: flt}, nil
}

// serve starts setlearnd's server on a loopback port and returns its address
// and a stop function that drains it and waits for it to exit.
func serve(st server.Structures, tr *tracer) (string, func() error, error) {
	srv, err := server.New(st, server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return "", nil, err
	}
	errc := make(chan error, 1)
	if tr == nil {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { errc <- srv.Run(ctx) }()
		a := srv.Addr()
		if a == nil {
			cancel()
			return "", nil, <-errc
		}
		return a.String(), func() error { cancel(); return <-errc }, nil
	}
	// Run serves its own Handler, so a traced run serves the wrapped handler
	// on an http.Server with Run's default timeouts instead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: tr.handler(srv.Handler()), ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second}
	go func() { errc <- hs.Serve(ln) }()
	stop := func() error {
		err := hs.Shutdown(context.Background())
		if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) {
			return serveErr
		}
		return err
	}
	return ln.Addr().String(), stop, nil
}
