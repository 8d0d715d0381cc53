GO ?= go

.PHONY: all build fmt-check vet lint lint-dataflow lint-interproc lint-publication lint-all test race race-mutation bench bench-inference bench-sharding bench-gate fuzz-smoke experiments examples clean

all: build vet lint-all test race

build:
	$(GO) build ./...

# Fail if any file needs gofmt (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# setlearnlint: the repo's custom analyzers — syntactic (floateq,
# poolpair, lockescape, globalrand, binioerr), path-sensitive
# (lockbalance, waitgroup, goroleak, deferclose), interprocedural
# (noalloc, trustlen), and publication-safety (pubfreeze, atomicmix,
# mapiterorder). See README "Development". CI runs `make lint-all`.
lint:
	$(GO) run ./cmd/setlearnlint ./...

# Just the CFG/dataflow-backed analyzers, for a fast check while working
# on concurrency-heavy code.
lint-dataflow:
	$(GO) run ./cmd/setlearnlint -run deferclose,goroleak,lockbalance,waitgroup ./...

# The interprocedural analyzers (call graph + function summaries): the
# hot-path zero-allocation contract and the untrusted-length taint check.
# Two halves, both mandatory:
#   1. the real tree must be clean, and
#   2. the seeded regression in testdata/seedmod — a hotpath that hides an
#      allocation two calls deep and a loader that trusts a decoded length
#      — must STILL FAIL, proving the machinery detects what it exists to
#      detect before we trust its silence on the real packages.
lint-interproc:
	$(GO) run ./cmd/setlearnlint -run noalloc,trustlen ./...
	@echo "checking the seeded regression still fails..."
	@if $(GO) run ./cmd/setlearnlint -run noalloc,trustlen ./internal/lint/testdata/seedmod >/tmp/seedmod.out 2>&1; then \
		echo "lint-interproc: seeded regression PASSED the analyzers — the interprocedural machinery is broken"; \
		cat /tmp/seedmod.out; exit 1; \
	fi
	@grep -q "noalloc" /tmp/seedmod.out || { echo "lint-interproc: seeded noalloc finding missing"; cat /tmp/seedmod.out; exit 1; }
	@grep -q "trustlen" /tmp/seedmod.out || { echo "lint-interproc: seeded trustlen finding missing"; cat /tmp/seedmod.out; exit 1; }
	@echo "seeded regression rejected as expected."

# The publication-safety family: frozen-after-publish (pubfreeze),
# atomic/plain access mixing (atomicmix), and map-iteration determinism
# (mapiterorder).
lint-publication:
	$(GO) run ./cmd/setlearnlint -run atomicmix,mapiterorder,pubfreeze ./...

# The one lint gate CI runs: gofmt, then every analyzer family under its
# own wall-clock budget (a runaway fixed-point loop fails the family, not
# the CI job timeout), then the seeded regressions — testdata/seedmod
# carries one deliberate violation per interprocedural and
# publication-safety analyzer, and the gate FAILS THE BUILD if any of the
# five analyzers stops rejecting its seed, proving the machinery detects
# what it exists to detect before we trust its silence on the real tree.
lint-all: fmt-check
	@echo "== syntactic analyzers =="
	timeout 120 $(GO) run ./cmd/setlearnlint -run binioerr,floateq,globalrand,lockescape,poolpair ./...
	@echo "== path-sensitive dataflow analyzers =="
	timeout 180 $(GO) run ./cmd/setlearnlint -run deferclose,goroleak,lockbalance,waitgroup ./...
	@echo "== interprocedural analyzers =="
	timeout 300 $(GO) run ./cmd/setlearnlint -run noalloc,trustlen ./...
	@echo "== publication-safety analyzers =="
	timeout 300 $(GO) run ./cmd/setlearnlint -run atomicmix,mapiterorder,pubfreeze ./...
	@echo "== seeded regressions (must fail) =="
	@if timeout 300 $(GO) run ./cmd/setlearnlint -run noalloc,trustlen,atomicmix,mapiterorder,pubfreeze ./internal/lint/testdata/seedmod >/tmp/seedmod.out 2>&1; then \
		echo "lint-all: seeded regression PASSED the analyzers — the lint machinery is broken"; \
		cat /tmp/seedmod.out; exit 1; \
	fi
	@for a in noalloc trustlen pubfreeze atomicmix mapiterorder; do \
		grep -q "($$a)" /tmp/seedmod.out || { echo "lint-all: seeded $$a finding missing"; cat /tmp/seedmod.out; exit 1; }; \
	done
	@echo "seeded regressions rejected as expected."

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The live-mutation battery under the race detector: goroutines query all
# three sharded containers while writers insert and the background trainer
# hot-swaps shard states, plus the /v1/insert HTTP surface and the bare
# hybrid.Delta under concurrent readers and writers. CI runs the same
# invocation with -count=2.
race-mutation:
	$(GO) test -race -run 'TestMutation|TestInsert|TestDelta|TestTrainer' -timeout 10m ./internal/hybrid/ ./internal/shard/ ./internal/server/

# One testing.B benchmark per table and figure of the paper, plus the
# per-operation query benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Measure the φ fast path (uncached vs φ-table vs φ-cache vs batched) and
# refresh the committed BENCH_inference.json trajectory.
bench-inference:
	$(GO) test -run '^$$' -bench 'BenchmarkInference' -benchmem .
	BENCH_INFERENCE_OUT=BENCH_inference.json $(GO) run ./cmd/experiments -exp inference -scale small

# Benchmark the sharded container against the monolith (build time with √K
# model scaling, accuracy, fan-out latency) and refresh the committed
# BENCH_sharding.json trajectory.
bench-sharding:
	BENCH_SHARDING_OUT=BENCH_sharding.json $(GO) run ./cmd/experiments -exp sharding -scale small

# Benchmark-regression gate: re-measure the inference and sharding
# experiments and compare against the committed BENCH_*.json baselines on
# hardware-independent metrics (speedup ratios, accuracy);
# non-zero exit on a regression beyond the noise tolerance. CI runs this.
bench-gate:
	BENCH_INFERENCE_OUT=/tmp/bench_inference_fresh.json $(GO) run ./cmd/experiments -exp inference -scale small
	$(GO) run ./cmd/benchgate -kind inference -baseline BENCH_inference.json -fresh /tmp/bench_inference_fresh.json
	BENCH_SHARDING_OUT=/tmp/bench_sharding_fresh.json $(GO) run ./cmd/experiments -exp sharding -scale small
	$(GO) run ./cmd/benchgate -kind sharding -baseline BENCH_sharding.json -fresh /tmp/bench_sharding_fresh.json

# Short coverage-guided fuzz runs over the load paths and the set parser;
# CI runs the same budget on every push and a longer nightly pass.
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoadStructure -fuzztime=20s ./internal/core/
	$(GO) test -fuzz=FuzzLoadSharded -fuzztime=20s ./internal/shard/
	$(GO) test -fuzz=FuzzInsertThenLoad -fuzztime=20s ./internal/shard/
	$(GO) test -fuzz=FuzzReadCollection -fuzztime=10s ./internal/sets/
	$(GO) test -fuzz=FuzzSetCanonical -fuzztime=10s ./internal/sets/

# Regenerate the paper's full evaluation at small scale (minutes).
experiments:
	$(GO) run ./cmd/experiments -exp all -scale small

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hashtags
	$(GO) run ./examples/serverlogs
	$(GO) run ./examples/membership
	$(GO) run ./examples/analytics

clean:
	$(GO) clean ./...
