// Command setlearnd serves trained learned structures over HTTP. It loads
// structures persisted by `setlearn -save` and answers single or batched
// queries concurrently on /v1/card, /v1/index, and /v1/member, with expvar
// metrics on /debug/vars and profiling on /debug/pprof/.
//
// Usage:
//
//	setlearn -task card   -data rw.txt -save est.bin   -query "3,17"
//	setlearn -task index  -data rw.txt -save idx.bin   -query "3,17"
//	setlearn -task member -data rw.txt -save mf.bin    -query "3,17"
//	setlearnd -data rw.txt -index idx.bin -card est.bin -member mf.bin -addr :8080
//
//	curl -s localhost:8080/v1/card   -d '{"query":[3,17]}'
//	curl -s localhost:8080/v1/index  -d '{"queries":[[3,17],[42]]}'
//	curl -s localhost:8080/v1/member -d '{"query":[3,17]}'
//
// The index requires -data (the collection it was built over, reopened like
// a heap file); the estimator and filter are self-contained. Sharded
// containers (setlearn -shards K) are detected by their magic bytes and
// served through the same endpoints, with per-shard stats printed at load
// and published under setlearn.shard.* on /debug/vars; -shards and
// -partitioner assert the expected topology. The daemon drains in-flight requests on SIGINT/SIGTERM before
// exiting.
//
// Live mutation: POST /v1/insert appends a set to every loaded structure;
// answers include it the moment the response is written, served from a
// per-shard exact delta. With -retrain-interval set, a background trainer
// sweeps the sharded containers, rebuilds the shard with the most pending
// inserts (at least -delta-threshold of them) off the serving path, and
// hot-swaps it in; pending-delta counters appear under setlearn.delta.* and
// trainer counters under setlearn.retrain.stats. Retraining a sharded
// estimator or filter needs -data (the collection the deltas extend), like
// the index.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"setlearn/internal/cli"
	"setlearn/internal/core"
	"setlearn/internal/server"
	"setlearn/internal/sets"
	"setlearn/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "collection file (required with -index)")
	indexPath := flag.String("index", "", "set index saved by setlearn -task index -save")
	cardPath := flag.String("card", "", "cardinality estimator saved by setlearn -task card -save")
	memberPath := flag.String("member", "", "membership filter saved by setlearn -task member -save")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	phiTable := flag.Bool("phi-table", true, "precompute the full φ-table when it fits the φ memory budget")
	phiCacheMB := flag.Int("phi-cache-mb", 64, "φ memory budget in MiB per structure: φ-table if it fits, sharded φ-cache otherwise; 0 disables the fast path")
	shards := flag.Int("shards", 0, "required shard count for loaded sharded containers; 0 accepts any")
	partFlag := flag.String("partitioner", "", "required partitioner (hash|freq|cluster) for loaded sharded containers; empty accepts any")
	retrainEvery := flag.Duration("retrain-interval", 0, "background retrain sweep interval for sharded containers; 0 disables")
	deltaThreshold := flag.Int("delta-threshold", 64, "pending inserts a shard must accumulate before a sweep rebuilds it")
	flag.Parse()

	if *indexPath == "" && *cardPath == "" && *memberPath == "" {
		fmt.Fprintln(os.Stderr, "setlearnd: provide at least one of -index, -card, -member")
		os.Exit(2)
	}
	if *indexPath != "" && *data == "" {
		fmt.Fprintln(os.Stderr, "setlearnd: -index requires -data (the indexed collection)")
		os.Exit(2)
	}
	var c *sets.Collection
	if *data != "" {
		c = must(cli.ReadCollection(*data))
	}
	wantPart := shard.Partitioner(-1)
	if *partFlag != "" {
		wantPart = must(shard.ParsePartitioner(*partFlag))
	}

	// The φ fast path memoizes per-element MLP outputs (bit-identical
	// results, large latency win). Loads auto-enable a default; the flags
	// override it per this process.
	fp := core.FastPathOptions{CacheBytes: *phiCacheMB << 20}
	if *phiTable {
		fp.TableBudgetBytes = *phiCacheMB << 20
	}

	var st server.Structures
	var retrainables []shard.Retrainable
	if *cardPath != "" {
		if must(cli.IsSharded(*cardPath)) {
			e := must(cli.Load(*cardPath, shard.LoadShardedEstimator))
			checkTopology("estimator", e.NumShards(), e.Partitioner(), *shards, wantPart)
			retrainables = append(retrainables, attachForRetrain("estimator", e.AttachCollection, c, e)...)
			st.Estimator = e
			fmt.Printf("loaded sharded estimator from %s (%d %s shards, %.3f MB, φ %s)\n",
				*cardPath, e.NumShards(), e.Partitioner(), cli.MB(e.SizeBytes()), e.EnableFastPath(fp))
			printShardStats(e)
		} else {
			rejectShardFlags("estimator", *cardPath, *shards, wantPart)
			e := must(cli.Load(*cardPath, core.LoadCardinalityEstimator))
			st.Estimator = e
			fmt.Printf("loaded estimator from %s (%.3f MB, φ %s)\n",
				*cardPath, cli.MB(e.SizeBytes()), e.EnableFastPath(fp))
		}
	}
	if *memberPath != "" {
		if must(cli.IsSharded(*memberPath)) {
			m := must(cli.Load(*memberPath, shard.LoadShardedFilter))
			checkTopology("filter", m.NumShards(), m.Partitioner(), *shards, wantPart)
			retrainables = append(retrainables, attachForRetrain("filter", m.AttachCollection, c, m)...)
			st.Filter = m
			fmt.Printf("loaded sharded filter from %s (%d %s shards, %.3f MB, φ %s)\n",
				*memberPath, m.NumShards(), m.Partitioner(), cli.MB(m.SizeBytes()), m.EnableFastPath(fp))
			printShardStats(m)
		} else {
			rejectShardFlags("filter", *memberPath, *shards, wantPart)
			m := must(cli.Load(*memberPath, core.LoadMembershipFilter))
			st.Filter = m
			fmt.Printf("loaded filter from %s (%.3f MB, φ %s)\n",
				*memberPath, cli.MB(m.SizeBytes()), m.EnableFastPath(fp))
		}
	}
	if *indexPath != "" {
		if must(cli.IsSharded(*indexPath)) {
			x := must(cli.Load(*indexPath, func(r io.Reader) (*shard.Index, error) {
				return shard.LoadShardedIndex(r, c)
			}))
			checkTopology("index", x.NumShards(), x.Partitioner(), *shards, wantPart)
			retrainables = append(retrainables, x)
			st.Index = x
			fmt.Printf("loaded sharded index from %s over %d sets (%d %s shards, %.3f MB, φ %s)\n",
				*indexPath, c.Len(), x.NumShards(), x.Partitioner(), cli.MB(x.SizeBytes()), x.EnableFastPath(fp))
			printShardStats(x)
		} else {
			rejectShardFlags("index", *indexPath, *shards, wantPart)
			x := must(cli.Load(*indexPath, func(r io.Reader) (*core.SetIndex, error) {
				return core.LoadIndex(r, c)
			}))
			st.Index = x
			fmt.Printf("loaded index from %s over %d sets (%.3f MB, φ %s)\n",
				*indexPath, c.Len(), cli.MB(x.SizeBytes()), x.EnableFastPath(fp))
		}
	}

	cfg := server.Config{Addr: *addr, DrainTimeout: *drain}
	var trainer *shard.Trainer
	if *retrainEvery > 0 {
		if len(retrainables) == 0 {
			fmt.Fprintln(os.Stderr, "setlearnd: -retrain-interval set but no retrainable sharded container loaded; background retrain disabled")
		} else {
			trainer = shard.NewTrainer(*retrainEvery, *deltaThreshold, func(err error) {
				fmt.Fprintln(os.Stderr, "setlearnd: retrain:", err)
			}, retrainables...)
			cfg.RetrainStats = func() any { return trainer.Stats() }
			fmt.Printf("background retrain: every %s, threshold %d pending, %d container(s)\n",
				*retrainEvery, *deltaThreshold, len(retrainables))
		}
	}
	srv := must(server.New(st, cfg))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if trainer != nil {
		trainer.Start(ctx)
	}
	go func() {
		// Addr returns nil when Run fails to bind; Run's own error is
		// already fatal, so only announce a live listener.
		if a := srv.Addr(); a != nil {
			fmt.Printf("serving on %s\n", a)
		}
	}()
	runErr := srv.Run(ctx)
	if trainer != nil {
		// The trainer may be mid-rebuild; wait so the process never exits
		// with a half-finished swap in flight.
		trainer.Stop()
	}
	if runErr != nil {
		fatal(runErr)
	}
	fmt.Println("drained, bye")
}

// attachForRetrain wires a loaded sharded estimator or filter for background
// retraining: RetrainShard needs the collection its deltas extend, supplied
// via -data. Returns the container as a one-element slice when it is ready
// to retrain, nil (with a notice) when it is not — the daemon still serves
// and absorbs inserts either way.
func attachForRetrain(kind string, attach func(*sets.Collection) error, c *sets.Collection, r shard.Retrainable) []shard.Retrainable {
	if c == nil {
		fmt.Fprintf(os.Stderr, "setlearnd: sharded %s: no -data; serving without background retrain\n", kind)
		return nil
	}
	if err := attach(c); err != nil {
		fmt.Fprintf(os.Stderr, "setlearnd: sharded %s: %v; serving without background retrain\n", kind, err)
		return nil
	}
	return []shard.Retrainable{r}
}

// checkTopology enforces the -shards / -partitioner expectations against a
// loaded sharded container; zero values accept anything.
func checkTopology(kind string, gotK int, gotP shard.Partitioner, wantK int, wantP shard.Partitioner) {
	if wantK > 0 && gotK != wantK {
		fatal(fmt.Errorf("%s: container has %d shards, -shards=%d", kind, gotK, wantK))
	}
	if wantP >= 0 && gotP != wantP {
		fatal(fmt.Errorf("%s: container partitioned by %s, -partitioner=%s", kind, gotP, wantP))
	}
}

// rejectShardFlags refuses shard topology expectations against a monolithic
// container (one logical shard is accepted so scripted invocations can pass
// -shards=1 uniformly).
func rejectShardFlags(kind, path string, wantK int, wantP shard.Partitioner) {
	if wantK > 1 {
		fatal(fmt.Errorf("%s: %s is monolithic, -shards=%d", kind, path, wantK))
	}
	if wantP >= 0 {
		fatal(fmt.Errorf("%s: %s is monolithic, -partitioner=%s", kind, path, wantP))
	}
}

// printShardStats prints one line per shard of a freshly loaded container.
func printShardStats(ss core.ShardStatser) {
	for _, s := range ss.ShardStats() {
		fmt.Printf("  shard %d: %d sets, %.3f MB, φ %s\n", s.Shard, s.Sets, cli.MB(s.Bytes), s.PhiMode)
	}
}

// must returns v, or exits with err.
func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "setlearnd:", err)
	os.Exit(1)
}
