package cli

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
	"setlearn/internal/shard"
)

// openFDs counts the descriptors this process holds open, or skips the
// test where /proc/self/fd is absent.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// noLeak calls f ten times with the GC off, since collecting an *os.File
// closes its descriptor, and fails if the process then holds more
// descriptors than before.
func noLeak(t *testing.T, what string, f func()) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // the first open may start the runtime's poller
	before := openFDs(t)
	for i := 0; i < 10; i++ {
		f()
	}
	if after := openFDs(t); after != before {
		t.Errorf("%s: %d descriptors open before ten calls, %d after", what, before, after)
	}
}

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadCollection(t *testing.T) {
	good := writeFile(t, "c.txt", []byte("3 1 2\n# comment\n7\n"))
	bad := writeFile(t, "bad.txt", []byte("1 x\n"))
	c, err := ReadCollection(good)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || !c.At(0).Equal(sets.New(1, 2, 3)) || !c.At(1).Equal(sets.New(7)) {
		t.Fatalf("read %v", c.Sets)
	}
	if _, err := ReadCollection(bad); err == nil {
		t.Fatal("a malformed collection read without error")
	}
	if _, err := ReadCollection(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("a missing file read without error")
	}
	noLeak(t, "ReadCollection", func() { ReadCollection(good) })
	noLeak(t, "ReadCollection of a malformed file", func() { ReadCollection(bad) })
}

// TestLoadAndIsSharded saves a monolithic and a sharded estimator and
// reopens each the way the commands do: IsSharded picks the loader.
func TestLoadAndIsSharded(t *testing.T) {
	c := dataset.GenerateSD(60, 20, 71)
	opts := core.EstimatorOptions{
		Model:     core.ModelOptions{EmbedDim: 2, PhiHidden: []int{4}, PhiOut: 4, RhoHidden: []int{4}, Epochs: 1, Workers: 1, Seed: 5},
		MaxSubset: 2,
	}
	mono, err := core.BuildEstimator(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.BuildShardedEstimator(c, shard.Options{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	save := func(name string, save func(io.Writer) error) string {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		return writeFile(t, name, buf.Bytes())
	}
	monoPath := save("est.bin", mono.Save)
	shardedPath := save("est2.bin", sharded.Save)

	for path, want := range map[string]bool{monoPath: false, shardedPath: true} {
		if got, err := IsSharded(path); err != nil || got != want {
			t.Fatalf("IsSharded(%s) = %v, %v; want %v", filepath.Base(path), got, err, want)
		}
	}
	if _, err := IsSharded(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("IsSharded of a missing file returned no error")
	}
	q := c.At(0)[:2]
	if e, err := Load(monoPath, core.LoadCardinalityEstimator); err != nil || e.Estimate(q) != mono.Estimate(q) {
		t.Fatalf("Load of the monolithic estimator: %v", err)
	}
	if e, err := Load(shardedPath, shard.LoadShardedEstimator); err != nil || e.NumShards() != 2 || e.Estimate(q) != sharded.Estimate(q) {
		t.Fatalf("Load of the sharded estimator: %v", err)
	}
	if _, err := Load(monoPath, shard.LoadShardedEstimator); err == nil {
		t.Fatal("the sharded loader accepted a monolithic estimator")
	}

	noLeak(t, "IsSharded", func() { IsSharded(shardedPath) })
	noLeak(t, "Load", func() { Load(shardedPath, shard.LoadShardedEstimator) })
	noLeak(t, "Load with a failing loader", func() { Load(monoPath, shard.LoadShardedEstimator) })
}

func TestMB(t *testing.T) {
	if got := MB(3 << 19); got != 1.5 {
		t.Fatalf("MB(1.5 MiB) = %v", got)
	}
}
