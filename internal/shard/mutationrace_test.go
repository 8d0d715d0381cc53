package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/sets"
)

// TestMutationUnderLoad is the live-mutation race battery: 64 goroutines
// query all three sharded containers while writer goroutines insert fresh
// sets and the background trainer hot-swaps shard states underneath. Run
// with -race this proves the swap protocol: no query ever observes a
// half-swapped shard, because every invariant below would break if one did.
//
// The invariants are chosen to be exact through any number of retrains:
//
//   - index: trained probes keep their first positions (inserted sets use
//     fresh element ids, so they can never contain an old query), and each
//     inserted set is found at its own position from the moment InsertSet
//     returns — first from the delta, later from the retrained model.
//   - estimator: exact overrides on never-inserted keys answer their
//     recorded cardinality bit-exactly throughout (the retrain fold keeps
//     the composition stable).
//   - filter: trained probes and inserted sets never produce a false
//     negative.
func TestMutationUnderLoad(t *testing.T) {
	const k = 3
	idx, est, flt, c := mutContainers(t, k, HashBySet)

	// Probes must stay within the trained subset cap (2) for the exactness
	// guarantee to pin them through retrains.
	probes := []sets.Set{c.At(2)[:2], c.At(19)[:2], c.At(37)[:2], c.At(55)[:1]}
	idxTruth := make([]int, len(probes))
	for i, q := range probes {
		idxTruth[i] = idx.Lookup(q)
		if !flt.Contains(q) {
			t.Fatalf("trained probe %v not contained before churn", q)
		}
	}

	// Exact overrides on an id range no insert will ever touch.
	ovBase := c.MaxID() + 1_000_000
	ovs := make([]sets.Set, 4)
	ovCard := make([]float64, len(ovs))
	for i := range ovs {
		ovs[i] = sets.New(ovBase + uint32(i))
		ovCard[i] = float64(10 + i)
		est.Update(ovs[i], ovCard[i])
	}

	tr := NewTrainer(time.Millisecond, 2, func(err error) { t.Errorf("trainer: %v", err) }, idx, est, flt)
	tr.Start(context.Background())

	const goroutines, perG = 64, 30
	insBase := c.MaxID()
	var insMu sync.Mutex
	inserted := make(map[int]sets.Set) // index-container position → set
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j := (g*31 + i) % len(probes)
				switch g % 8 {
				case 0: // writer: fresh two-element set into all three
					n := uint32(g*perG+i) * 2
					s := sets.New(insBase+1+n, insBase+2+n)
					pos := idx.InsertSet(s)
					est.InsertSet(s)
					flt.InsertSet(s)
					insMu.Lock()
					inserted[pos] = s
					insMu.Unlock()
					// Read-own-write: visible the instant InsertSet returns,
					// and at the same position forever after.
					if got := idx.Lookup(s); got != pos {
						t.Errorf("read-own-write: Lookup(%v) = %d, want %d", s, got, pos)
						return
					}
					if !flt.Contains(s) {
						t.Errorf("read-own-write: Contains(%v) = false", s)
						return
					}
				case 1: // trained index probes, single path
					if got := idx.Lookup(probes[j]); got != idxTruth[j] {
						t.Errorf("Lookup(%v) = %d, want %d", probes[j], got, idxTruth[j])
						return
					}
				case 2: // trained index probes, batch path
					got := idx.LookupBatch(nil, probes, false)
					for m := range probes {
						if got[m] != idxTruth[m] {
							t.Errorf("LookupBatch(%v) = %d, want %d", probes[m], got[m], idxTruth[m])
							return
						}
					}
				case 3: // exact estimator overrides, single path
					if got := est.Estimate(ovs[j]); got != ovCard[j] {
						t.Errorf("Estimate(%v) = %g, want %g", ovs[j], got, ovCard[j])
						return
					}
				case 4: // exact estimator overrides, batch path
					got := est.EstimateBatch(nil, ovs)
					for m := range ovs {
						if got[m] != ovCard[m] {
							t.Errorf("EstimateBatch(%v) = %g, want %g", ovs[m], got[m], ovCard[m])
							return
						}
					}
				case 5: // filter probes, both paths
					if !flt.Contains(probes[j]) {
						t.Errorf("Contains(%v) = false during churn", probes[j])
						return
					}
					got := flt.ContainsBatch(probes, 1)
					for m := range probes {
						if !got[m] {
							t.Errorf("ContainsBatch(%v) = false during churn", probes[m])
							return
						}
					}
				case 6: // stats paths race with the swaps too
					for _, r := range []Retrainable{idx, est, flt} {
						ds := r.DeltaStats()
						if ds.Pending < 0 {
							t.Errorf("negative pending count %d", ds.Pending)
							return
						}
					}
					idx.ShardStats()
					est.SizeBytes()
				default: // mixed single reads
					if got := idx.Lookup(probes[j]); got != idxTruth[j] {
						t.Errorf("Lookup(%v) = %d, want %d", probes[j], got, idxTruth[j])
						return
					}
					if got := est.Estimate(ovs[j]); got != ovCard[j] {
						t.Errorf("Estimate(%v) = %g, want %g", ovs[j], got, ovCard[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	tr.Stop()
	if t.Failed() {
		return
	}

	// Drain what the trainer had not absorbed yet, then check accounting:
	// every insert was either absorbed or is pending — never lost or doubled.
	total := uint64(len(inserted))
	if total == 0 {
		t.Fatal("no inserts ran")
	}
	for _, r := range []Retrainable{idx, est, flt} {
		ds := r.DeltaStats()
		if ds.Absorbed+uint64(ds.Pending) != total {
			t.Fatalf("absorbed %d + pending %d != inserted %d", ds.Absorbed, ds.Pending, total)
		}
	}
	drainDeltas(t, idx, k)
	drainDeltas(t, est, k)
	drainDeltas(t, flt, k)
	for _, r := range []Retrainable{idx, est, flt} {
		if ds := r.DeltaStats(); ds.Absorbed != total {
			t.Fatalf("after drain: absorbed %d, want %d", ds.Absorbed, total)
		}
	}

	// Every inserted set must be served from the trained path now, still at
	// its insert-time position; trained probes and overrides are unmoved.
	for pos, s := range inserted {
		if got := idx.Lookup(s); got != pos {
			t.Fatalf("after drain: Lookup(%v) = %d, want %d", s, got, pos)
		}
		if !flt.Contains(s) {
			t.Fatalf("after drain: Contains(%v) = false", s)
		}
	}
	for i, q := range probes {
		if got := idx.Lookup(q); got != idxTruth[i] {
			t.Fatalf("after drain: Lookup(%v) = %d, want %d", q, got, idxTruth[i])
		}
	}
	for i, q := range ovs {
		if got := est.Estimate(q); got != ovCard[i] {
			t.Fatalf("after drain: Estimate(%v) = %g, want %g", q, got, ovCard[i])
		}
	}
	if st := tr.Stats(); st.Errors != 0 {
		t.Fatalf("trainer reported %d errors", st.Errors)
	}
}

// TestMutationFastPathToggle toggles EnableFastPath on a K=2 index while
// another goroutine inserts fresh sets and retrains both shards, and each
// retrain re-applies the remembered options to its new model. Run with
// -race this checks that EnableFastPath publishes options it no longer
// writes.
func TestMutationFastPathToggle(t *testing.T) {
	const k = 2
	c := mutCollection()
	idx, err := BuildShardedIndex(c, Options{Shards: k, Partitioner: HashBySet}, mutIndexOpts())
	if err != nil {
		t.Fatal(err)
	}
	modes := []core.FastPathOptions{{}, {CacheBytes: 1 << 20}, core.DefaultFastPath}
	inserted := make(map[int]sets.Set) // position → set
	done := make(chan struct{})
	go func() {
		defer close(done)
		fresh := freshSets(c.MaxID(), 64, 3)
		for round := 0; round < 3; round++ {
			// Insert until both shards hold a pending set, then retrain both.
			for ds := idx.DeltaStats(); ds.PerShard[0] == 0 || ds.PerShard[1] == 0; ds = idx.DeltaStats() {
				s := fresh[len(inserted)]
				inserted[idx.InsertSet(s)] = s
			}
			for s := 0; s < k; s++ {
				if err := idx.RetrainShard(s); err != nil {
					t.Errorf("retrain shard %d: %v", s, err)
					return
				}
			}
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			for pos, s := range inserted {
				if got := idx.Lookup(s); got != pos {
					t.Errorf("Lookup(%v) = %d, want %d", s, got, pos)
				}
			}
			return
		default:
			idx.EnableFastPath(modes[i%len(modes)])
		}
	}
}

// TestInsertConcurrentReaders inserts fresh sets into a K=2 index one at a
// time while two goroutines look up the set being inserted, which may or
// may not be visible yet. Each lookup reads the prune-layer words that the
// insert sets (presence bits, subset support), so run with -race this
// checks that an insert publishes a shard's prune state only once it is
// complete.
func TestInsertConcurrentReaders(t *testing.T) {
	c := mutCollection()
	idx, err := BuildShardedIndex(c, Options{Shards: 2, Partitioner: HashBySet}, mutIndexOpts())
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshSets(c.MaxID(), 300, 2)
	var cursor atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				j := int(cursor.Load())
				if got := idx.Lookup(fresh[j]); got != -1 && got != c.Len()+j {
					t.Errorf("Lookup(%v) = %d during its insert, want -1 or %d", fresh[j], got, c.Len()+j)
					return
				}
			}
		}()
	}
	for j, s := range fresh {
		cursor.Store(int64(j))
		if pos := idx.InsertSet(s); pos != c.Len()+j {
			t.Errorf("InsertSet(%v) = %d, want %d", s, pos, c.Len()+j)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	for j, s := range fresh {
		if got := idx.Lookup(s); got != c.Len()+j {
			t.Fatalf("Lookup(%v) = %d, want %d", s, got, c.Len()+j)
		}
	}
}
