package main

import (
	"math"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

type accuracy struct {
	qerrMean, qerrP95, fpr float64
	checked, violations    int
}

// checkAccuracy answers the whole pool and the negatives once through the
// served structures' batch API. Builds are deterministic, so the q-error and
// FPR repeat exactly for a seed; index answers must be exact and the filter
// must have no false negative.
func checkAccuracy(s *served, p *pool) accuracy {
	var a accuracy
	ests := s.st.Estimator.EstimateBatch(nil, p.pos)
	qerr := make([]float64, len(ests))
	sum := 0.0
	for i, e := range ests {
		if !(e >= 0) || math.IsInf(e, 0) {
			a.violations++
		}
		e = math.Max(e, 1)
		t := float64(p.card[i])
		qerr[i] = math.Max(e/t, t/e)
		sum += qerr[i]
	}
	a.qerrMean = sum / float64(len(qerr))
	a.qerrP95 = quantile(qerr, 0.95)

	for i, pos := range s.st.Index.LookupBatch(nil, p.pos, false) {
		if pos != p.first[i] {
			a.violations++
		}
	}
	for _, m := range s.st.Filter.ContainsBatch(p.pos, 1) {
		if !m {
			a.violations++
		}
	}
	fp := 0
	for _, m := range s.st.Filter.ContainsBatch(p.neg, 1) {
		if m {
			fp++
		}
	}
	a.fpr = float64(fp) / float64(len(p.neg))
	a.checked = 3*len(p.pos) + len(p.neg)
	return a
}

// routedQueries sums the per-shard query counters of the sharded containers;
// a monolith has none.
func routedQueries(s *served) uint64 {
	var n uint64
	for _, st := range []any{s.raw.Estimator, s.raw.Index, s.raw.Filter} {
		if ss, ok := st.(core.ShardStatser); ok {
			for _, x := range ss.ShardStats() {
				n += x.Queries
			}
		}
	}
	return n
}

func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from the window's span totals,
// the set-up breakdown and two probes run after the window.
func layerMetrics(cfg config, s *served, tr totals, reps []setupSteps, answered int, routed uint64, m *meter) []metric {
	us := func(ns, n int64) float64 { return per(float64(ns), float64(n)) / 1e3 }
	step := func(f func(setupSteps) time.Duration) float64 { return medianSetup(reps, f) }
	reqs := float64(tr.calls[lHandler])
	structBusy := tr.busy[lCard] + tr.busy[lIndex] + tr.busy[lMember] + tr.busy[lInsert]
	queries := tr.items[lCard] + tr.items[lIndex] + tr.items[lMember]
	fanout := 1.0 // a monolith is one shard
	if s.mono == nil {
		fanout = per(float64(routed), float64(queries))
	}
	pending := s.raw.Index.(core.Inserter).DeltaStats().Pending

	t := time.Now()
	st := dataset.CollectSubsets(s.coll, cfg.maxSubset)
	enumerate := time.Since(t).Seconds()

	return []metric{
		{name: "net.us_per_req", value: us(tr.busy[lClient]-tr.busy[lHandler], tr.calls[lClient]), unit: "us"},
		{name: "server.us_per_req", value: us(tr.busy[lHandler]-structBusy, tr.calls[lHandler]), unit: "us"},
		{name: "server.req_bytes", value: per(float64(tr.reqBytes), reqs), unit: "bytes"},
		{name: "server.resp_bytes", value: per(float64(tr.respBytes), reqs), unit: "bytes"},
		{name: "server.start_s", value: step(func(st setupSteps) time.Duration { return st.serve }), unit: "s"},
		{name: "runtime.alloc_bytes_per_query", value: per(float64(m.alloc), float64(answered)), unit: "bytes"},
		{name: "runtime.gc_count", value: float64(m.gcs), unit: "count"},
		{name: "struct.card.us_per_query", value: us(tr.busy[lCard], tr.items[lCard]), unit: "us"},
		{name: "struct.index.us_per_query", value: us(tr.busy[lIndex], tr.items[lIndex]), unit: "us"},
		{name: "struct.member.us_per_query", value: us(tr.busy[lMember], tr.items[lMember]), unit: "us"},
		{name: "struct.insert.us_per_set", value: insertProbe(cfg, s), unit: "us"},
		{name: "struct.fanout_per_query", value: fanout, unit: "shards"},
		{name: "struct.delta_pending", value: float64(pending), unit: "count"},
		{name: "struct.build_card_s", value: step(func(st setupSteps) time.Duration { return st.buildCard }), unit: "s"},
		{name: "struct.build_index_s", value: step(func(st setupSteps) time.Duration { return st.buildIndex }), unit: "s"},
		{name: "struct.build_member_s", value: step(func(st setupSteps) time.Duration { return st.buildMember }), unit: "s"},
		{name: "struct.fastpath_s", value: step(func(st setupSteps) time.Duration { return st.fastpath }), unit: "s"},
		{name: "dataset.generate_s", value: step(func(st setupSteps) time.Duration { return st.generate }), unit: "s"},
		{name: "dataset.enumerate_s", value: enumerate, unit: "s"},
		{name: "dataset.samples", value: float64(st.Len()), unit: "count"},
		{name: "io.save_s", value: step(func(st setupSteps) time.Duration { return st.save }), unit: "s"},
		{name: "io.load_s", value: step(func(st setupSteps) time.Duration { return st.load }), unit: "s"},
		{name: "io.bytes", value: float64(reps[len(reps)-1].bytes), unit: "bytes"},
	}
}

// insertProbe times InsertSet on each served structure for fresh sets, after
// everything else is measured, and returns µs per set and structure.
func insertProbe(cfg config, s *served) float64 {
	const n = 256
	fresh := dataset.GenerateRW(n, int(s.coll.MaxID())+1, cfg.seed+6).Sets
	ins := []core.Inserter{
		s.raw.Estimator.(core.Inserter), s.raw.Index.(core.Inserter), s.raw.Filter.(core.Inserter),
	}
	start := time.Now()
	for _, set := range fresh {
		for _, in := range ins {
			in.InsertSet(set)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / (n * float64(len(ins))) / 1e3
}

// modelProbe replays the pool in 64-query batches directly against the
// monolith's inner layers; the sharded containers expose no per-shard
// structure, so it runs on monolith workloads only.
func modelProbe(m *monolith, p *pool) []metric {
	const batch = 64
	perQuery := func(fn func(qs []sets.Set)) float64 {
		start := time.Now()
		n := 0
		for rep := 0; rep < 3; rep++ {
			for i := 0; i+batch <= len(p.pos); i += batch {
				fn(p.pos[i : i+batch])
				n += batch
			}
		}
		return per(float64(time.Since(start).Nanoseconds()), float64(n)) / 1e3
	}
	var f []float64
	var x []int
	hybCard := perQuery(func(qs []sets.Set) { f = m.est.Hybrid().EstimateBatch(f, qs) })
	coreCard := perQuery(func(qs []sets.Set) { f = m.est.EstimateBatch(f, qs) })
	hybIndex := perQuery(func(qs []sets.Set) { x = m.idx.Hybrid().LookupBatch(x, qs, false) })
	coreIndex := perQuery(func(qs []sets.Set) { x = m.idx.LookupBatch(x, qs, false) })
	pred := m.est.Hybrid().Model().NewPredictor()
	model := perQuery(func(qs []sets.Set) { f = pred.PredictBatch(f, qs) })
	window := 0
	for _, q := range p.pos {
		window += m.idx.Hybrid().WindowSize(q)
	}
	return []metric{
		{name: "hybrid.card.us_per_query", value: hybCard, unit: "us"},
		{name: "hybrid.index.us_per_query", value: hybIndex, unit: "us"},
		{name: "deepsets.us_per_query", value: model, unit: "us"},
		{name: "hybrid.index.window_mean", value: per(float64(window), float64(len(p.pos))), unit: "sets"},
		{name: "core.delta_us_per_query", value: (coreCard - hybCard + coreIndex - hybIndex) / 2, unit: "us", note: "(core minus hybrid, card and index mean)"},
	}
}
