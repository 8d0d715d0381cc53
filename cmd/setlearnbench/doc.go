// Command setlearnbench is the end-to-end benchmark of setlearnd. In one
// process it generates a seeded collection, builds the estimator, index and
// filter through the public core or shard build functions, round-trips them
// through Save and Load as setlearnd does, serves them with
// server.New(...).Run on a loopback port, and drives them with a closed-loop
// HTTP load generator. Every answer is checked against the exact oracle in
// sets.Collection; any violation fails the run with exit status 1.
//
// Usage, from the root of a checkout (run.sh builds into .bench_build/):
//
//	bash cmd/setlearnbench/run.sh --workload point --seed 1 --seconds 15 --trace 0
//
// It prints every metric by name and unit, then one JSON line holding the
// metrics BENCHMARK.json at the repository root names: the end-to-end ones,
// or with --trace 1 the per-layer ones. baseline.json holds the measured
// baseline. The benchmark is a module of its own, so its tests run with
// `go test .` in this directory and not under the repository's go test ./...
//
// # Workloads
//
// All are closed loops: 2 client goroutines, each on its own keep-alive
// connection and each waiting for a reply before it sends again, the way a
// query planner or an ingest job calls the service. GOMAXPROCS is left at
// the CPU count, so the server and its clients share the cores. Each client
// writes its HTTP/1.1 requests and reads the replies on its own goroutine,
// not through net/http's client, whose per-connection reader and writer
// goroutines would add hand-offs to every timed request.
//
//   - point: single-query requests to a monolith, card:index:member =
//     1:1:1 exactly: each client asks every pool query once per kind in a
//     seeded order, the kinds taking turns. HTTP, JSON and loopback are most
//     of each request, so it loads the server and net layers; the model does
//     little.
//   - batch: the same mix in 64-query requests (a planner costing about 2^6
//     subplans). DeepSets φ/ρ and the hybrid index window scan dominate; the
//     HTTP cost is spread over 64 queries.
//   - sharded: batch traffic served by K=8 HashBySet containers
//     (Parallelism 2, MeasureBounds). It exercises shard routing, the prune
//     layers and fan-out/fan-in, which every monolith workload bypasses. Its
//     build is about twice as cheap, so its setup_s differs.
//   - ingest: a monolith driven through a fixed sequence of operations,
//     after a read-only warm-up: 90% single reads (1:1:1) and 10% single
//     inserts, where the read after an insert queries a subset of the set
//     that client just inserted. The sequence runs ten times, each time on
//     structures loaded afresh from the saved bytes with 5000 sets already
//     inserted, and together the runs carry 12000 operations per second of
//     --seconds. The exact delta grows by the same amount in every
//     replay, so a delta or write-path change shows here and stays flat on
//     point.
//
// # Sizes
//
// Every workload sets up the same way: dataset.GenerateRW(1000, 1500, 1);
// compressed models trained for 4 epochs with 2 workers and seed 1, so
// accuracy repeats bit for bit; subsets of up to 3 elements; eviction
// percentile 90; f64 with setlearnd's default φ fast path (at this
// vocabulary the φ-table always fits). The query pool is 4096 subsets of 1-3
// elements sampled from collection sets; member traffic is half negatives,
// 4096 pairs or triples of collection elements that never occur together.
// The collection, the models, the pool and the sets ingest inserts are
// fixed, so the accuracy and size metrics repeat exactly on every run;
// --seed draws the traffic: the order of the queries, how they group into
// batches and where the inserts fall, but never how many of each kind, so a
// seed cannot make the program look slower. Set-up runs three times and
// setup_s is the median, so work moved into set-up shows. The sizes sit
// below the experiments' small scale so that three set-ups, a 1 s warm-up
// and a 15 s window fit one run into about 30 s on 2 cores.
//
// # Metrics
//
// End to end: setup_s (generation, builds, save and load, φ enable and
// server start, until the listener is bound), queries_per_s (queries and
// inserted sets answered per second), latency_p50_ms and latency_p99_ms per
// HTTP request. The window runs as ten slices, each on new client
// connections: a tenth of --seconds for a read loop, one run of the sequence
// for ingest. Each traffic metric is the median slice, so interference from
// other tenants during a few slices does not move it. Then card_qerr_mean and card_qerr_p95 over the pool, member_tnr
// (1 - FPR over the negatives) and struct_mb (the served structures'
// SizeBytes after the run, the delta included). The accuracy metrics come
// from one pass over the served structures' batch API after set-up.
// member_fpr and error_rate are printed too; both are 0 when all is well,
// so BENCHMARK.json gates member_tnr and the result's failed count.
//
// Per layer (--trace 1), with the end-to-end metric each should move:
//
//   - net.us_per_req (client round trip minus handler span),
//     server.us_per_req (handler minus structure spans), server.req_bytes and
//     server.resp_bytes: over 90% of latency_p50_ms and queries_per_s on
//     point, under 10% on batch and sharded.
//   - runtime.alloc_bytes_per_query and runtime.gc_count (ReadMemStats
//     deltas over the window; the clients share the process):
//     latency_p99_ms on point and ingest.
//   - struct.{card,index,member}.us_per_query (core on monoliths, shard on
//     sharded): the split between structure and server time on every
//     workload. struct.insert.us_per_set is a probe of 256 inserts into each
//     structure after the run.
//   - struct.fanout_per_query (shard queries routed per query, 1 on a
//     monolith): queries_per_s on sharded.
//   - struct.delta_pending: queries_per_s and latency on ingest, 0 elsewhere.
//   - The set-up breakdown, dataset.generate_s, dataset.enumerate_s and
//     dataset.samples (a timed CollectSubsets), struct.build_*_s,
//     struct.fastpath_s, io.save_s, io.load_s, io.bytes and server.start_s:
//     setup_s on every workload; watch card_qerr_* and member_tnr beside it.
//
// On monolith workloads a traced run also prints a model probe that replays
// the pool in 64-query batches straight into the inner layers:
// hybrid.{card,index}.us_per_query, deepsets.us_per_query,
// hybrid.index.window_mean and core.delta_us_per_query (core minus hybrid,
// near 0 except on ingest). They move queries_per_s on batch and barely move
// point. The sharded containers expose no per-shard structure, so the probe
// cannot run on sharded and is left out of the JSON result.
//
// Layers are timed only from outside, by decorators in this directory around
// server.Handler and each served structure's batch and insert calls. Spans
// (name, start, end, parent, and a request id the client sends in the
// X-Bench-Req header) are kept in memory, the first 50000 of them, and
// written as JSON at exit. The server passes no request context into the
// structures, so structure spans are matched to requests in aggregate. Run
// serves its own handler, so a traced run serves the wrapped handler on an
// http.Server with Run's timeouts; it prints its end-to-end metrics too, and
// their difference from an untraced run is the tracing overhead.
//
// # Out of scope
//
//   - Open-loop rate sweeps: they study queueing, not the layers.
//   - A vocabulary past the φ budget, which forces the PhiCache: φ cost
//     would then depend on cache warmth.
//   - The background retrainer: its time-triggered sweeps add spread.
//   - f32 serving: a second serving path would double the workloads.
package main
