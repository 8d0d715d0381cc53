// Command setlearn builds a learned structure over a collection file and
// answers queries with it, comparing each answer against the exact
// linear-scan ground truth.
//
// Usage:
//
//	setlearn -task card   -data rw.txt -query "3,17,42"
//	setlearn -task index  -data rw.txt -queries queries.txt
//	setlearn -task member -data rw.txt -query "3,17" -compressed=false
//	setlearn -task stats  -data rw.txt
//
// Trained structures can be persisted and reopened:
//
//	setlearn -task card -data rw.txt -save est.bin -query "3,17"
//	setlearn -task card -data rw.txt -load est.bin -query "3,17"
//
// With -shards K (K > 1) the structure is built as a partitioned container
// (internal/shard): the collection is split by -partitioner (hash, range,
// freq, or cluster), one down-scaled model is trained per shard, and queries
// fan out with exact merge semantics. Sharded saves use their own container
// format; -load detects it by magic bytes, so the same flag reopens either
// kind:
//
//	setlearn -task card -data rw.txt -shards 4 -partitioner freq -save est4.bin -query "3,17"
//	setlearn -task card -data rw.txt -load est4.bin -query "3,17"
//
// A save writes a temporary file beside the target and renames it into
// place, so a failed save leaves any previous file at the -save path intact.
//
// The collection file holds one set per line as space-separated element ids
// (the cmd/datagen output format); a queries file holds one query per line
// as comma- or space-separated ids.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/sets"
	"setlearn/internal/shard"
)

func main() {
	task := flag.String("task", "card", "task: card, index, member, stats")
	data := flag.String("data", "", "collection file (required)")
	query := flag.String("query", "", "one query: comma-separated element ids")
	queries := flag.String("queries", "", "file with one query per line")
	compressed := flag.Bool("compressed", true, "use the compressed (CLSM) model")
	epochs := flag.Int("epochs", 15, "training epochs")
	maxSubset := flag.Int("max-subset", 3, "training subset size cap")
	percentile := flag.Float64("percentile", 90, "outlier eviction percentile (0 disables)")
	savePath := flag.String("save", "", "persist the trained structure to this file")
	loadPath := flag.String("load", "", "load a previously saved structure instead of training")
	shards := flag.Int("shards", 0, "build a sharded container with this many shards (0/1 = monolithic)")
	partFlag := flag.String("partitioner", "hash", "shard partitioner: hash, range, freq, or cluster")
	flag.Parse()

	part, err := shard.ParsePartitioner(*partFlag)
	if err != nil {
		fatal(err)
	}
	shardOpts := shard.Options{Shards: *shards, Partitioner: part, MeasureBounds: true}

	if *data == "" {
		fmt.Fprintln(os.Stderr, "setlearn: -data is required")
		os.Exit(2)
	}
	f, err := os.Open(*data)
	if err != nil {
		fatal(err)
	}
	c, err := sets.ReadCollection(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d sets from %s\n", c.Len(), *data)

	if *task == "stats" {
		st := c.Stats()
		fmt.Printf("n=%d uniq=%d maxcard=%d setsize=%d/%d\n",
			st.N, st.UniqueElem, st.MaxCard, st.MinSetSize, st.MaxSetSize)
		return
	}

	qs, err := loadQueries(*query, *queries)
	if err != nil {
		fatal(err)
	}
	if len(qs) == 0 {
		fmt.Fprintln(os.Stderr, "setlearn: provide -query or -queries")
		os.Exit(2)
	}

	opts := core.ModelOptions{Compressed: *compressed, Epochs: *epochs, Seed: 1}
	start := time.Now()
	switch *task {
	case "card":
		var est core.CardinalityQuerier
		switch {
		case *loadPath != "" && sniffSharded(*loadPath):
			se := loadStructure(*loadPath, func(r *os.File) (*shard.Estimator, error) {
				return shard.LoadShardedEstimator(r)
			})
			fmt.Printf("loaded sharded estimator from %s (%d %s shards, %.3f MB)\n",
				*loadPath, se.NumShards(), se.Partitioner(), mbOf(se.SizeBytes()))
			est = se
		case *loadPath != "":
			e := loadStructure(*loadPath, func(r *os.File) (*core.CardinalityEstimator, error) {
				return core.LoadCardinalityEstimator(r)
			})
			fmt.Printf("loaded estimator from %s (%.3f MB)\n", *loadPath, mbOf(e.SizeBytes()))
			est = e
		case *shards > 1:
			se, err := shard.BuildShardedEstimator(c, shardOpts, core.EstimatorOptions{
				Model: opts, MaxSubset: *maxSubset, Percentile: *percentile,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("built sharded estimator (%d %s shards) in %.1fs (%.3f MB)\n",
				se.NumShards(), se.Partitioner(), time.Since(start).Seconds(), mbOf(se.SizeBytes()))
			printBuildStats(se.BuildStats())
			saveStructure(*savePath, se.Save)
			est = se
		default:
			e, err := core.BuildEstimator(c, core.EstimatorOptions{
				Model: opts, MaxSubset: *maxSubset, Percentile: *percentile,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("built estimator in %.1fs (%.3f MB)\n",
				time.Since(start).Seconds(), mbOf(e.SizeBytes()))
			saveStructure(*savePath, e.Save)
			est = e
		}
		for _, q := range qs {
			fmt.Printf("card(%v) ≈ %.1f (exact %d)\n", q, est.Estimate(q), c.Cardinality(q))
		}
	case "index":
		var idx core.IndexQuerier
		switch {
		case *loadPath != "" && sniffSharded(*loadPath):
			sx := loadStructure(*loadPath, func(r *os.File) (*shard.Index, error) {
				return shard.LoadShardedIndex(r, c)
			})
			fmt.Printf("loaded sharded index from %s (%d %s shards, %.3f MB)\n",
				*loadPath, sx.NumShards(), sx.Partitioner(), mbOf(sx.SizeBytes()))
			idx = sx
		case *loadPath != "":
			x := loadStructure(*loadPath, func(r *os.File) (*core.SetIndex, error) {
				return core.LoadIndex(r, c)
			})
			fmt.Printf("loaded index from %s (%.3f MB)\n", *loadPath, mbOf(x.SizeBytes()))
			idx = x
		case *shards > 1:
			sx, err := shard.BuildShardedIndex(c, shardOpts, core.IndexOptions{
				Model: opts, MaxSubset: *maxSubset, Percentile: *percentile,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("built sharded index (%d %s shards) in %.1fs (%.3f MB)\n",
				sx.NumShards(), sx.Partitioner(), time.Since(start).Seconds(), mbOf(sx.SizeBytes()))
			printBuildStats(sx.BuildStats())
			saveStructure(*savePath, sx.Save)
			idx = sx
		default:
			x, err := core.BuildIndex(c, core.IndexOptions{
				Model: opts, MaxSubset: *maxSubset, Percentile: *percentile,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("built index in %.1fs (%.3f MB, max err %d)\n",
				time.Since(start).Seconds(), mbOf(x.SizeBytes()), x.MaxError())
			saveStructure(*savePath, x.Save)
			idx = x
		}
		for _, q := range qs {
			fmt.Printf("pos(%v) = %d (exact %d)\n", q, idx.Lookup(q), c.FirstPosition(q))
		}
	case "member":
		var mf core.MembershipQuerier
		switch {
		case *loadPath != "" && sniffSharded(*loadPath):
			sf := loadStructure(*loadPath, func(r *os.File) (*shard.Filter, error) {
				return shard.LoadShardedFilter(r)
			})
			fmt.Printf("loaded sharded filter from %s (%d %s shards, %.3f MB)\n",
				*loadPath, sf.NumShards(), sf.Partitioner(), mbOf(sf.SizeBytes()))
			mf = sf
		case *loadPath != "":
			m := loadStructure(*loadPath, func(r *os.File) (*core.MembershipFilter, error) {
				return core.LoadMembershipFilter(r)
			})
			fmt.Printf("loaded filter from %s (%.3f MB)\n", *loadPath, mbOf(m.SizeBytes()))
			mf = m
		case *shards > 1:
			sf, err := shard.BuildShardedFilter(c, shardOpts, core.FilterOptions{
				Model: opts, MaxSubset: *maxSubset,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("built sharded filter (%d %s shards) in %.1fs (%.3f MB)\n",
				sf.NumShards(), sf.Partitioner(), time.Since(start).Seconds(), mbOf(sf.SizeBytes()))
			printBuildStats(sf.BuildStats())
			saveStructure(*savePath, sf.Save)
			mf = sf
		default:
			m, err := core.BuildMembershipFilter(c, core.FilterOptions{
				Model: opts, MaxSubset: *maxSubset,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("built filter in %.1fs (%.3f MB, %d backed up)\n",
				time.Since(start).Seconds(), mbOf(m.SizeBytes()), m.BackupCount())
			saveStructure(*savePath, m.Save)
			mf = m
		}
		for _, q := range qs {
			fmt.Printf("member(%v) = %v (exact %v)\n", q, mf.Contains(q), c.Member(q))
		}
	default:
		fmt.Fprintf(os.Stderr, "setlearn: unknown task %q\n", *task)
		os.Exit(2)
	}
}

func mbOf(bytes int) float64 { return float64(bytes) / (1024 * 1024) }

// sniffSharded reports whether path holds a sharded container (by magic), so
// -load reopens either format without a mode flag.
func sniffSharded(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	return shard.SniffSharded(f)
}

// printBuildStats prints one line per shard of a fresh sharded build.
func printBuildStats(stats []shard.BuildStat) {
	for _, s := range stats {
		line := fmt.Sprintf("  shard %d: %d sets, %.1fs, %.3f MB", s.Shard, s.Sets, s.BuildSecs, mbOf(s.Bytes))
		if s.MaxError > 0 {
			line += fmt.Sprintf(", max err %d", s.MaxError)
		}
		if s.ErrBound > 0 {
			line += fmt.Sprintf(", err bound %.2f", s.ErrBound)
		}
		fmt.Println(line)
	}
}

// saveStructure writes the structure when -save was given.
func saveStructure(path string, save func(w io.Writer) error) {
	if path == "" {
		return
	}
	if err := atomicSave(path, save); err != nil {
		fatal(err)
	}
	fmt.Printf("saved to %s\n", path)
}

// atomicSave writes save's output to a temporary file in path's directory,
// syncs and closes it, renames it over path, and syncs the directory so
// the rename is durable. Until the rename, any error removes the temporary
// file and leaves an existing file at path untouched.
func atomicSave(path string, save func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644)
	if err == nil {
		err = save(tmp)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) // best effort: err is the failure to report
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadStructure opens path and decodes the structure with load.
func loadStructure[T any](path string, load func(*os.File) (T, error)) T {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	v, err := load(f)
	if err != nil {
		fatal(err)
	}
	return v
}

func loadQueries(single, file string) ([]sets.Set, error) {
	var out []sets.Set
	if single != "" {
		q, err := parseQuery(single)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			q, err := parseQuery(line)
			if err != nil {
				return nil, err
			}
			out = append(out, q)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func parseQuery(s string) (sets.Set, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	ids := make([]uint32, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad query element %q: %w", f, err)
		}
		ids = append(ids, uint32(v))
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("empty query %q", s)
	}
	return sets.New(ids...), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "setlearn:", err)
	os.Exit(1)
}
