GO ?= go

.PHONY: all build fmt-check vet lint test race race-mutation bench bench-inference bench-sharding bench-gate fuzz-smoke experiments examples clean

all: build vet lint test race

build:
	$(GO) build ./...

# Fail if any file needs gofmt (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The static checks are gofmt and go vet. The invariants that custom
# analyzers once guarded are pinned by tests (DESIGN §6).
lint: fmt-check

test:
	$(GO) test ./...

# internal/bench's tiny-scale experiment sweep takes about 6 minutes under
# -race on 2 vCPUs, too close to go test's default 10m per-package limit.
race:
	$(GO) test -race -timeout 30m ./...

# The live-mutation battery under the race detector: goroutines query all
# three sharded containers while writers insert and the background trainer
# hot-swaps shard states, plus the /v1/insert HTTP surface, the bare
# hybrid.Delta under concurrent readers and writers, and the φ-accel and
# fast-path swaps under load. CI runs the same invocation with -count=2.
race-mutation:
	$(GO) test -race -run 'TestMutation|TestInsert|TestDelta|TestTrainer' -timeout 10m ./internal/deepsets/ ./internal/hybrid/ ./internal/shard/ ./internal/server/

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

# Short coverage-guided fuzz runs over the load paths, the set parser, the
# HTTP request decoder and the insert delta against its naive oracle;
# CI runs the same budget on every push and a longer nightly pass.
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoadStructure -fuzztime=20s ./internal/core/
	$(GO) test -fuzz=FuzzLoadSharded -fuzztime=20s ./internal/shard/
	$(GO) test -fuzz=FuzzInsertThenLoad -fuzztime=20s ./internal/shard/
	$(GO) test -fuzz=FuzzReadCollection -fuzztime=10s ./internal/sets/
	$(GO) test -fuzz=FuzzSetCanonical -fuzztime=10s ./internal/sets/
	$(GO) test -fuzz=FuzzDecodeBody -fuzztime=10s ./internal/server/
	$(GO) test -fuzz=FuzzDelta -fuzztime=10s ./internal/hybrid/

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
