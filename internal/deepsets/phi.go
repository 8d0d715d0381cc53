// φ acceleration: the fused inference fast path.
//
// After training, an element's row — W₁·φ(embed(x)) under sum and mean
// pooling, φ(embed(x)) under max pooling (see the package comment) — is a
// pure function of the element id, so per-element work is memoizable by
// construction. Two structures exploit that:
//
//   - PhiTable precomputes the row for the whole universe — (MaxID+1) ×
//     row width float64s — turning a size-k query into k vector adds plus
//     the rest of ρ. Reads are lock-free (the table is immutable after
//     build).
//   - PhiCache is the fallback for universes whose table would not fit a
//     memory budget: a lock-sharded, fixed-size cache with round-robin
//     eviction. Hits copy the row out under a shard read lock; misses
//     compute it and insert.
//
// Both produce bit-identical predictions to the uncached path: the rows
// they serve are the exact float64 outputs of the same kernels.
package deepsets

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// AccelStats describes the state of a φ acceleration structure; the server
// exports it per endpoint under /debug/vars.
type AccelStats struct {
	Mode    string `json:"mode"`             // "table" or "cache"
	Hits    uint64 `json:"hits"`             // rows served without running φ (cache only)
	Misses  uint64 `json:"misses"`           // rows recomputed and inserted (cache only)
	Entries int    `json:"entries"`          // rows currently materialized
	Shards  int    `json:"shards,omitempty"` // lock shards (cache only)
	Bytes   int    `json:"bytes"`            // row storage footprint
}

// PhiAccel is a φ acceleration structure pluggable into a Model via
// SetPhiAccel: either the fully precomputed PhiTable or the sharded
// fixed-size PhiCache. Only this package implements it.
type PhiAccel interface {
	Stats() AccelStats
	SizeBytes() int
	// row returns id's row (Predictor.rowFor). The slice is owned by the
	// accel or the predictor's scratch: valid until the next row call
	// through p, and must not be mutated.
	row(p *Predictor, id uint32) []float64
}

// accelBox wraps the interface so Model can hold it in an atomic.Pointer
// (attaching an accel while queries are in flight must be race-free).
type accelBox struct{ a PhiAccel }

// SetPhiAccel installs a φ acceleration structure (nil removes it). The
// structure caches rows of the model's *current* weights; rebuild it after
// any further training. Safe to call concurrently with predictions.
func (m *Model) SetPhiAccel(a PhiAccel) {
	if a == nil {
		m.accel.Store(nil)
		return
	}
	m.accel.Store(&accelBox{a: a})
}

// PhiAccel returns the installed acceleration structure, or nil.
func (m *Model) PhiAccel() PhiAccel {
	if b := m.accel.Load(); b != nil {
		return b.a
	}
	return nil
}

// AccelStats reports the installed acceleration structure's counters; ok is
// false when inference runs uncached.
func (m *Model) AccelStats() (AccelStats, bool) {
	a := m.PhiAccel()
	if a == nil {
		return AccelStats{}, false
	}
	return a.Stats(), true
}

// PhiTableBytes returns the memory a full φ-table for cfg would occupy —
// the fit test against a configured budget: (MaxID+1) rows of the row
// width (RhoHidden[0], 1 when ρ has no hidden layer, or PhiOut under max
// pooling). Defaults are applied first so the estimate matches what New
// would build.
func PhiTableBytes(cfg Config) int {
	cfg.applyDefaults()
	return (int(cfg.MaxID) + 1) * cfg.rowWidth() * 8
}

// PhiTable holds the row of every id in the universe. Immutable after
// BuildPhiTable, so reads need no synchronization.
type PhiTable struct {
	maxID uint32
	width int
	data  []float64 // (maxID+1) × width, row-major by id
}

// BuildPhiTable precomputes the row of every id in [0, MaxID]. For the
// compressed model (§5) the id is decompressed into sub-embeddings exactly
// as the uncached path does, so the table is valid for LSM and CLSM alike.
func (m *Model) BuildPhiTable() *PhiTable {
	w := m.cfg.rowWidth()
	t := &PhiTable{
		maxID: m.cfg.MaxID,
		width: w,
		data:  make([]float64, (int(m.cfg.MaxID)+1)*w),
	}
	p := m.NewPredictor()
	for id := 0; id <= int(m.cfg.MaxID); id++ {
		copy(t.data[id*w:], p.rowFor(uint32(id)))
	}
	return t
}

// row returns a read-only view of the precomputed row.
func (t *PhiTable) row(_ *Predictor, id uint32) []float64 {
	if id > t.maxID {
		panic(fmt.Sprintf("deepsets: element id %d exceeds MaxID %d", id, t.maxID))
	}
	return t.data[int(id)*t.width : (int(id)+1)*t.width]
}

// SizeBytes returns the table footprint.
func (t *PhiTable) SizeBytes() int { return len(t.data) * 8 }

// Stats implements PhiAccel. The table has no miss path and counts nothing
// on reads to keep them free of shared-memory writes.
func (t *PhiTable) Stats() AccelStats {
	return AccelStats{Mode: "table", Entries: int(t.maxID) + 1, Bytes: t.SizeBytes()}
}

// PhiCache is a lock-sharded, fixed-size row memo for universes too large
// to tabulate. Each shard owns a slab of slots recycled round-robin; the
// map from id to slot lives beside it. Hits copy the row into the caller's
// predictor scratch under the shard read lock (a slot may be recycled the
// moment the lock drops), misses compute the row outside any lock and
// insert.
//
// Counter semantics (pinned by TestPhiCacheCounterSemantics): hits and
// misses count cache *probes* — one per row request that reaches the
// cache. The PredictBatch memo sits in front of the cache, so within one
// batch each distinct element id probes at most once; repeated ids are
// served by the memo and move no counter. Under concurrency two goroutines
// racing on a cold id may each count a miss for one resulting entry (the
// row is computed outside the lock), so misses ≥ distinct ids inserted.
type PhiCache struct {
	width int
	mask  uint32
	shard []phiShard
}

type phiShard struct {
	mu   sync.RWMutex
	idx  map[uint32]int32 // id → slot
	ids  []uint32         // slot → id (meaningful for slot < full)
	slab []float64        // len(ids) × width
	full int              // slots filled so far
	next int              // round-robin eviction cursor once full

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewPhiCache sizes a sharded φ-cache to maxBytes of row storage spread
// over the given number of lock shards (default 64, rounded up to a power
// of two). A slot holds one row of the row width (see PhiTableBytes). Each
// shard holds at least one slot, so tiny budgets still work.
func (m *Model) NewPhiCache(maxBytes, shards int) *PhiCache {
	if shards <= 0 {
		shards = 64
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	shards = pow
	w := m.cfg.rowWidth()
	slots := maxBytes / (w * 8) / shards
	if slots < 1 {
		slots = 1
	}
	c := &PhiCache{width: w, mask: uint32(shards - 1), shard: make([]phiShard, shards)}
	for i := range c.shard {
		c.shard[i] = phiShard{
			idx:  make(map[uint32]int32, slots),
			ids:  make([]uint32, slots),
			slab: make([]float64, slots*w),
		}
	}
	return c
}

// shardOf spreads ids across shards with a multiply-xor hash so dense id
// ranges do not pile onto one lock.
func (c *PhiCache) shardOf(id uint32) *phiShard {
	h := id * 2654435761
	h ^= h >> 16
	return &c.shard[h&c.mask]
}

func (c *PhiCache) row(p *Predictor, id uint32) []float64 {
	sh := c.shardOf(id)
	sh.mu.RLock()
	if slot, ok := sh.idx[id]; ok {
		copy(p.rowBuf, sh.slab[int(slot)*c.width:int(slot+1)*c.width])
		sh.mu.RUnlock()
		sh.hits.Add(1)
		return p.rowBuf
	}
	sh.mu.RUnlock()
	sh.misses.Add(1)
	v := p.rowFor(id) // validates id and runs φ (and W₁)
	sh.mu.Lock()
	if _, ok := sh.idx[id]; !ok {
		var slot int
		if sh.full < len(sh.ids) {
			slot = sh.full
			sh.full++
		} else {
			slot = sh.next
			sh.next++
			if sh.next == len(sh.ids) {
				sh.next = 0
			}
			delete(sh.idx, sh.ids[slot])
		}
		sh.ids[slot] = id
		copy(sh.slab[slot*c.width:(slot+1)*c.width], v)
		sh.idx[id] = int32(slot)
	}
	sh.mu.Unlock()
	return v
}

// SizeBytes returns the slab footprint across all shards.
func (c *PhiCache) SizeBytes() int {
	total := 0
	for i := range c.shard {
		total += len(c.shard[i].slab) * 8
	}
	return total
}

// Stats aggregates the per-shard counters.
func (c *PhiCache) Stats() AccelStats {
	st := AccelStats{Mode: "cache", Shards: len(c.shard), Bytes: c.SizeBytes()}
	for i := range c.shard {
		sh := &c.shard[i]
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		sh.mu.RLock()
		st.Entries += sh.full
		sh.mu.RUnlock()
	}
	return st
}
