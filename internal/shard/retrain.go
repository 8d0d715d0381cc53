package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
)

// The live-mutation retrain path. A retrain absorbs one shard's pending
// delta into a freshly trained model and hot-swaps the shard's state
// pointer under live traffic:
//
//  1. Snapshot the delta (append-only, so the prefix of length cut is
//     stable) and merge it with the shard's trained sub-collection in
//     global position order.
//  2. Build the new shard model off the serving path with container.train,
//     the build's own per-shard step: the same scaled options and the same
//     deterministic seed (baseSeed+shard) — so the result is bit-identical
//     to a from-scratch build over the union collection.
//  3. Under insertMu, collect the tail (inserts that landed during the
//     build), swap in the new state carrying the tail as its delta, and
//     raise the accepted MaxID.
//
// Because inserts also run under insertMu, every insert lands either in
// the old delta (absorbed now or carried as tail) or in the new state's
// delta — never lost, never double-counted. Queries load one state
// pointer and see either (old model + complete old delta) or (new model +
// tail); both compose to the same answers, which is what the
// mutation-under-load battery pins.

// Retrainable is a container whose shards can be rebuilt in the background
// by a Trainer.
type Retrainable interface {
	// StalestShard returns the shard most in need of a retrain — largest
	// pending delta, oldest tie-break — or -1 when every shard has fewer
	// than minPending pending inserts or the container cannot retrain.
	StalestShard(minPending int) int
	// RetrainShard rebuilds shard s over its trained sets plus pending
	// delta and hot-swaps the result. A no-op (nil) when the delta is
	// empty, which makes double triggers idempotent.
	RetrainShard(s int) error
	// DeltaStats reports the pending/absorbed counters.
	DeltaStats() core.DeltaStats
}

// mergeTrained merges a shard's trained sets with absorbed delta entries
// into a fresh position-ordered (sub-collection, global map) pair — the
// exact pair a from-scratch partition of the union collection would
// produce for this shard.
func mergeTrained(sub *sets.Collection, global []int, absorbed []hybrid.DeltaEntry) (*sets.Collection, []int) {
	type posSet struct {
		pos int
		set sets.Set
	}
	n := sub.Len()
	all := make([]posSet, 0, n+len(absorbed))
	for i := 0; i < n; i++ {
		all = append(all, posSet{global[i], sub.At(i)})
	}
	for _, en := range absorbed {
		all = append(all, posSet{en.Pos, en.Set})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	ns := &sets.Collection{Sets: make([]sets.Set, 0, len(all))}
	ng := make([]int, 0, len(all))
	for _, p := range all {
		ns.Append(p.set)
		ng = append(ng, p.pos)
	}
	return ns, ng
}

// raiseMaxID lifts the container's accepted-id ceiling; only retrains
// write it (serialized by retrainMu), so load-then-store is race-free.
func raiseMaxID(m *atomic.Uint32, id uint32) {
	if id > m.Load() {
		m.Store(id)
	}
}

// RetrainShard rebuilds shard s over its trained sets plus the pending
// delta and hot-swaps it. Returns nil without building when the delta is
// empty. Requires the shard sub-collections (present after a build or an
// index load; a loaded estimator or filter needs AttachCollection first).
func (c *container[M, O]) RetrainShard(s int) error {
	return c.retrain(s, func(next *state[M], _ []hybrid.DeltaEntry) { c.states[s].Store(next) })
}

// retrain is the retrain protocol above. swap publishes the new state; it
// runs under insertMu with the absorbed delta entries, so a wrapper can
// publish under its own lock and fold what was absorbed.
func (c *container[M, O]) retrain(s int, swap func(next *state[M], absorbed []hybrid.DeltaEntry)) error {
	if s < 0 || s >= c.k {
		return fmt.Errorf("shard: retrain: shard %d out of range [0, %d)", s, c.k)
	}
	if c.opts == nil {
		return fmt.Errorf("shard: retrain: container loaded without retrain state (v1 stream)")
	}
	c.retrainMu.Lock()
	defer c.retrainMu.Unlock()
	old := c.states[s].Load()
	if old.sub == nil {
		return fmt.Errorf("shard: retrain shard %d: no collection attached (call AttachCollection)", s)
	}
	snap := old.delta.Snapshot()
	cut := len(snap)
	if cut == 0 {
		return nil
	}
	sub, global := mergeTrained(old.sub, old.global, snap)
	next, err := c.train(s, sub, global)
	if err != nil {
		return fmt.Errorf("shard: retrain shard %d: %w", s, err)
	}
	c.insertMu.Lock()
	next.delta = hybrid.NewDeltaFrom(old.delta.Tail(cut))
	swap(next, snap)
	c.insertMu.Unlock()
	c.absorbed.Add(uint64(cut))
	raiseMaxID(&c.maxID, sub.MaxID())
	return nil
}

// AttachCollection gives a loaded container its collection back, enabling
// retrains: each shard's sub-collection is rebuilt from the persisted
// position maps, resolving each position from the base collection or the
// inserted-set log. col must be the collection the container was
// originally built over (it may be longer; only the first baseLen sets are
// used). A shard with no trained sets needs no map and gets an empty
// sub-collection.
func (c *container[M, O]) AttachCollection(col *sets.Collection) error {
	if c.opts == nil {
		return fmt.Errorf("shard: attach: container loaded without retrain state (v1 stream)")
	}
	c.retrainMu.Lock()
	defer c.retrainMu.Unlock()
	c.insertMu.Lock()
	defer c.insertMu.Unlock()
	if col == nil {
		return fmt.Errorf("shard: attach: nil collection")
	}
	if col.Len() < c.baseLen {
		return fmt.Errorf("shard: attach: collection has %d sets, container was built over %d", col.Len(), c.baseLen)
	}
	byPos := make(map[int]sets.Set, len(c.inserted))
	for _, en := range c.inserted {
		byPos[en.Pos] = en.Set
	}
	next := make([]*state[M], c.k)
	for s := range next {
		st := *c.states[s].Load()
		if st.global == nil && st.stat.Sets > 0 {
			return fmt.Errorf("shard: attach: shard %d has no position map (v1 stream)", s)
		}
		sub, err := resolveSub(st.global, c.baseLen, col, byPos)
		if err != nil {
			return fmt.Errorf("shard: attach: shard %d: %w", s, err)
		}
		st.sub = sub
		next[s] = &st
	}
	for s, st := range next {
		c.states[s].Store(st)
	}
	return nil
}

// TrainerStats are the background trainer's counters, published by the
// server under setlearn.retrain.*.
type TrainerStats struct {
	Sweeps   uint64  `json:"sweeps"`
	Retrains uint64  `json:"retrains"`
	Errors   uint64  `json:"errors"`
	LastSecs float64 `json:"last_secs"` // duration of the most recent retrain
}

// Trainer owns the background retrain loop: every interval (or on Kick) it
// scans its targets for the stalest shard and rebuilds at most one shard
// per target per sweep, off the serving path. Builds are serialized per
// container by retrainMu, so a Trainer never races a manual RetrainShard.
type Trainer struct {
	targets   []Retrainable
	interval  time.Duration
	threshold int

	kick   chan struct{}
	done   chan struct{}
	cancel context.CancelFunc

	sweeps   atomic.Uint64
	retrains atomic.Uint64
	errors   atomic.Uint64
	lastSecs atomic.Uint64 // math.Float64bits
	onErr    func(error)
}

// NewTrainer builds a trainer over the given containers. interval is the
// sweep period (minimum 1ms is enforced at Start); threshold is the
// minimum pending-delta size that makes a shard eligible (minimum 1).
// onErr, when non-nil, observes retrain failures (e.g. a server log).
func NewTrainer(interval time.Duration, threshold int, onErr func(error), targets ...Retrainable) *Trainer {
	if threshold < 1 {
		threshold = 1
	}
	return &Trainer{
		targets:   targets,
		interval:  interval,
		threshold: threshold,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		onErr:     onErr,
	}
}

// Start launches the background loop. The goroutine exits when ctx is
// cancelled or Stop is called; Stop waits for it.
func (t *Trainer) Start(ctx context.Context) {
	if t.interval < time.Millisecond {
		t.interval = time.Millisecond
	}
	ctx, t.cancel = context.WithCancel(ctx)
	go t.loop(ctx)
}

// loop is the trainer goroutine: tick or kick, then one sweep. The
// context is the single exit path, so the goroutine cannot leak.
func (t *Trainer) loop(ctx context.Context) {
	defer close(t.done)
	ticker := time.NewTicker(t.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		case <-t.kick:
		}
		t.Sweep()
	}
}

// Stop cancels the loop and waits for the goroutine to exit. Safe to call
// once after Start; a Trainer that was never started must not be stopped.
func (t *Trainer) Stop() {
	t.cancel()
	<-t.done
}

// Kick requests an immediate sweep without waiting for the next tick
// (non-blocking; coalesces with an already-pending kick).
func (t *Trainer) Kick() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// Sweep synchronously retrains the stalest eligible shard of every target.
// Exported so tests and shutdown paths can drain deltas deterministically.
func (t *Trainer) Sweep() {
	t.sweeps.Add(1)
	for _, target := range t.targets {
		s := target.StalestShard(t.threshold)
		if s < 0 {
			continue
		}
		t0 := time.Now()
		if err := target.RetrainShard(s); err != nil {
			t.errors.Add(1)
			if t.onErr != nil {
				t.onErr(err)
			}
			continue
		}
		t.retrains.Add(1)
		t.lastSecs.Store(floatBits(time.Since(t0).Seconds()))
	}
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Stats returns the trainer's counters.
func (t *Trainer) Stats() TrainerStats {
	return TrainerStats{
		Sweeps:   t.sweeps.Load(),
		Retrains: t.retrains.Load(),
		Errors:   t.errors.Load(),
		LastSecs: floatFromBits(t.lastSecs.Load()),
	}
}
