package shard

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"setlearn/internal/blockio"
	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
)

// Sharded containers persist as a versioned stream:
//
//	magic (8 bytes, "SLSHRD1\x00")
//	blockio{ gob containerHeader }
//	K × blockio{ core.Save stream }   (zero-length block for an empty shard)
//
// The magic distinguishes sharded containers from the monolithic core
// streams (which start with a blockio length prefix), so loaders can sniff
// the format. Every variable-length section sits behind the same
// length-prefixed framing the monolithic format uses, and each shard's
// payload is parsed by the fuzz-hardened core loaders, so corrupt or
// truncated inputs surface as errors, never panics.
//
// Format version 2 adds the live-mutation state: the insert log, each
// shard's pending-delta positions, and the scaled build options — so a
// restart loses nothing (pending inserts answer exactly again immediately)
// and background retrains can resume with the original deterministic
// configuration. Version-1 streams still load; they come up with empty
// deltas and no retrain state.
//
// Format version 3 adds the error-aware sharding state: the partitioner
// assignment tables — the frequency-band score table and bounds, or the
// embedding-cluster centroids plus pilot-model parameters — so inserts keep
// routing consistently after a reload, and the per-shard prune state. The
// freq/cluster partitioner codes are only legal at version ≥ 3. Version-1/2
// streams still load, with stateless routing.
//
// Earlier builds could also write per-shard calibration curves into a v3
// header. Those streams still load: the curves are ignored, and a measured
// quantity taken with the curves applied is discarded (estimator bounds)
// or remeasured (index error bounds), so the loaded container serves the
// plain model path exactly.

// Magic is the 8-byte sharded-container signature.
const Magic = "SLSHRD1\x00"

// IsShardedMagic reports whether b begins with the sharded-container magic.
func IsShardedMagic(b []byte) bool {
	return len(b) >= len(Magic) && string(b[:len(Magic)]) == Magic
}

const formatVersion = 3

type containerHeader struct {
	Version     int
	Kind        string // "index", "card", or "member"
	Shards      int
	Partitioner int
	MaxSubset   int
	ShardSets   []int    // trained sets per shard; 0 marks an empty (nil) shard
	Globals     [][]int  // per-shard local → global position (v1: index only; v2: all kinds)
	AuxKeys     []string // estimator only: exact-override keys, sorted
	AuxVals     []float64
	Bounds      []float64 // estimator only: per-shard measured bounds, or nil

	// Live-mutation state (version ≥ 2; zero values in v1 streams).
	BaseLen      int        // collection length at the original build
	NextPos      int64      // next global position InsertSet will hand out
	BaseSeed     int64      // per-shard model seed base
	InsertedPos  []int      // every insert since the original build, in order
	InsertedSets [][]uint32 // parallel to InsertedPos; canonical element lists
	DeltaPos     [][]int    // per shard: pending-delta positions, insertion order
	IndexOpts    *core.IndexOptions
	EstOpts      *core.EstimatorOptions
	FltOpts      *core.FilterOptions

	// CalX holds the per-shard calibration-curve abscissae of streams
	// written by calibrated builds of earlier releases. Read-only: it only
	// marks such a stream (see legacyCalibrated); saves never write it.
	CalX [][]float64

	// Per-shard element-presence bitmaps (all partitioners, K > 1): the
	// exact vocabulary prune's state. Nil in pre-v3 streams (pruning stays
	// off); a nil row leaves that one shard unpruned.
	Present [][]uint64

	// Per-shard subset-support Bloom filters and their saturation flags
	// (all partitioners, K > 1). Same nil conventions as Present; rows must
	// be power-of-two sized.
	Support    [][]uint64
	SupportSat []bool

	// FrequencyBand assignment table: the build-time element frequency
	// scores (sorted ids + parallel counts) and per-shard score bounds.
	FreqIDs    []uint32
	FreqCounts []int64
	FreqBounds []int64

	// EmbedCluster assignment table: the k-means centroids and the pilot
	// model parameters needed to rebuild the embedding deterministically.
	Centroids  [][]float64
	PilotSeed  int64
	PilotMaxID uint32
	PilotDim   int
}

func writeMagic(w io.Writer) error {
	_, err := w.Write([]byte(Magic))
	return err
}

func readContainerHeader(r io.Reader, kind string) (containerHeader, error) {
	var hdr containerHeader
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return hdr, fmt.Errorf("shard: read magic: %w", err)
	}
	if !IsShardedMagic(magic[:]) {
		return hdr, fmt.Errorf("shard: bad magic %q (not a sharded container)", magic[:])
	}
	block, err := blockio.Read(r)
	if err != nil {
		return hdr, fmt.Errorf("shard: read header: %w", err)
	}
	if err := gob.NewDecoder(block).Decode(&hdr); err != nil {
		return hdr, fmt.Errorf("shard: decode header: %w", err)
	}
	if hdr.Version < 1 || hdr.Version > formatVersion {
		return hdr, fmt.Errorf("shard: unsupported container version %d", hdr.Version)
	}
	if hdr.Kind != kind {
		return hdr, fmt.Errorf("shard: container holds %q, want %q", hdr.Kind, kind)
	}
	if hdr.Shards < 1 || hdr.Shards > maxShards {
		return hdr, fmt.Errorf("shard: shard count %d out of range [1, %d]", hdr.Shards, maxShards)
	}
	switch p := Partitioner(hdr.Partitioner); {
	case p == HashBySet || p == RangeByPosition:
	case (p == FrequencyBand || p == EmbedCluster) && hdr.Version >= 3:
	default:
		return hdr, fmt.Errorf("shard: unknown partitioner %d for version %d", hdr.Partitioner, hdr.Version)
	}
	if len(hdr.ShardSets) != hdr.Shards {
		return hdr, fmt.Errorf("shard: header lists %d shard sizes for %d shards", len(hdr.ShardSets), hdr.Shards)
	}
	if hdr.MaxSubset < 0 || hdr.MaxSubset > 64 {
		return hdr, fmt.Errorf("shard: subset cap %d out of range", hdr.MaxSubset)
	}
	return hdr, nil
}

// mutationState is the decoded v2 live-mutation header state, shared by the
// three loaders.
type mutationState struct {
	inserted []hybrid.DeltaEntry
	byPos    map[int]sets.Set
	deltas   [][]hybrid.DeltaEntry // per shard; nil deltas in v1 streams
	baseLen  int
	nextPos  int64
	baseSeed int64
}

// decodeMutation validates and decodes the v2 live-mutation header fields.
// Version-1 streams return the zero state (empty deltas). All malformed
// inputs — this is a fuzz surface — come back as errors, never panics.
func decodeMutation(hdr containerHeader) (mutationState, error) {
	var ms mutationState
	if hdr.Version < 2 {
		ms.deltas = make([][]hybrid.DeltaEntry, hdr.Shards)
		return ms, nil
	}
	if hdr.BaseLen < 0 {
		return ms, fmt.Errorf("shard: negative base length %d", hdr.BaseLen)
	}
	if hdr.NextPos < int64(hdr.BaseLen) {
		return ms, fmt.Errorf("shard: next position %d below base length %d", hdr.NextPos, hdr.BaseLen)
	}
	if len(hdr.InsertedPos) != len(hdr.InsertedSets) {
		return ms, fmt.Errorf("shard: %d insert positions for %d insert sets", len(hdr.InsertedPos), len(hdr.InsertedSets))
	}
	ms.baseLen = hdr.BaseLen
	ms.nextPos = hdr.NextPos
	ms.baseSeed = hdr.BaseSeed
	ms.byPos = make(map[int]sets.Set, len(hdr.InsertedPos))
	ms.inserted = make([]hybrid.DeltaEntry, 0, len(hdr.InsertedPos))
	for i, pos := range hdr.InsertedPos {
		if pos < 0 {
			return ms, fmt.Errorf("shard: insert %d: negative position %d", i, pos)
		}
		if _, dup := ms.byPos[pos]; dup {
			return ms, fmt.Errorf("shard: insert %d: duplicate position %d", i, pos)
		}
		s, err := canonicalSet(hdr.InsertedSets[i])
		if err != nil {
			return ms, fmt.Errorf("shard: insert %d: %w", i, err)
		}
		ms.byPos[pos] = s
		ms.inserted = append(ms.inserted, hybrid.DeltaEntry{Pos: pos, Set: s})
	}
	if hdr.DeltaPos != nil && len(hdr.DeltaPos) != hdr.Shards {
		return ms, fmt.Errorf("shard: header lists %d delta lists for %d shards", len(hdr.DeltaPos), hdr.Shards)
	}
	ms.deltas = make([][]hybrid.DeltaEntry, hdr.Shards)
	for s, dp := range hdr.DeltaPos {
		for _, pos := range dp {
			set, ok := ms.byPos[pos]
			if !ok {
				return ms, fmt.Errorf("shard: shard %d delta references position %d outside the insert log", s, pos)
			}
			ms.deltas[s] = append(ms.deltas[s], hybrid.DeltaEntry{Pos: pos, Set: set})
		}
	}
	return ms, nil
}

// canonicalSet validates a persisted element list: strictly increasing ids
// (the sets.Set canonical form).
func canonicalSet(ids []uint32) (sets.Set, error) {
	s := make(sets.Set, len(ids))
	for i, id := range ids {
		if i > 0 && id <= ids[i-1] {
			return nil, fmt.Errorf("element list not strictly increasing at %d", i)
		}
		s[i] = id
	}
	return s, nil
}

// resolvePos maps a persisted global position to its set: base-collection
// positions resolve through c, later ones through the insert log.
func resolvePos(pos int, baseLen int, c *sets.Collection, byPos map[int]sets.Set) (sets.Set, error) {
	if pos >= 0 && pos < baseLen {
		return c.At(pos), nil
	}
	if s, ok := byPos[pos]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("position %d outside the collection and the insert log", pos)
}

// validateGlobals checks the per-shard position maps against the shard
// sizes.
func validateGlobals(hdr containerHeader) error {
	if len(hdr.Globals) != hdr.Shards {
		return fmt.Errorf("shard: header lists %d global maps for %d shards", len(hdr.Globals), hdr.Shards)
	}
	for s, g := range hdr.Globals {
		if len(g) != hdr.ShardSets[s] {
			return fmt.Errorf("shard: shard %d: %d globals for %d sets", s, len(g), hdr.ShardSets[s])
		}
	}
	return nil
}

// routerToHeader records the router's assignment tables in the header
// (nothing for stateless hash/range routing or the K=1 degenerate forms).
func routerToHeader(rt *router, hdr *containerHeader) {
	hdr.Present = rt.presenceWords()
	hdr.Support, hdr.SupportSat = rt.supportToWords()
	if rt.freq != nil {
		hdr.FreqIDs = rt.freq.ids
		hdr.FreqCounts = rt.freq.counts
		hdr.FreqBounds = rt.freq.bounds
	}
	if rt.clust != nil {
		hdr.Centroids = rt.clust.centroids
		hdr.PilotSeed = rt.clust.seed
		hdr.PilotMaxID = rt.clust.maxID
		hdr.PilotDim = rt.clust.dim
	}
}

// routerFromHeader validates the persisted assignment tables and rebuilds
// the router. This is a fuzz surface: every malformed table errors, so a
// load never routes inserts — or prunes queries — from garbage.
func routerFromHeader(hdr containerHeader) (*router, error) {
	p := Partitioner(hdr.Partitioner)
	rt := newRouter(hdr.Shards, p)
	if hdr.Present != nil {
		if len(hdr.Present) != hdr.Shards {
			return nil, fmt.Errorf("shard: %d presence bitmaps for %d shards", len(hdr.Present), hdr.Shards)
		}
		if hdr.Shards > 1 {
			rt.present = presenceFromWords(hdr.Present)
		}
	}
	if hdr.Support != nil {
		if len(hdr.Support) != hdr.Shards {
			return nil, fmt.Errorf("shard: %d support filters for %d shards", len(hdr.Support), hdr.Shards)
		}
		if len(hdr.SupportSat) != hdr.Shards {
			return nil, fmt.Errorf("shard: %d support saturation flags for %d shards", len(hdr.SupportSat), hdr.Shards)
		}
		for s, row := range hdr.Support {
			if row == nil {
				continue
			}
			if len(row) < 1 || len(row) > supportMaxWords || len(row)&(len(row)-1) != 0 {
				return nil, fmt.Errorf("shard: support filter %d has %d words (want a power of two ≤ %d)", s, len(row), supportMaxWords)
			}
		}
		if hdr.Shards > 1 {
			rt.support = supportFromHeader(hdr.Support, hdr.SupportSat)
			rt.maxSub = hdr.MaxSubset
		}
	}
	switch {
	case p == FrequencyBand && hdr.Shards > 1:
		if len(hdr.FreqIDs) != len(hdr.FreqCounts) {
			return nil, fmt.Errorf("shard: %d frequency ids for %d counts", len(hdr.FreqIDs), len(hdr.FreqCounts))
		}
		if len(hdr.FreqBounds) != hdr.Shards {
			return nil, fmt.Errorf("shard: %d frequency bounds for %d shards", len(hdr.FreqBounds), hdr.Shards)
		}
		f := &freqRouter{
			ids:    hdr.FreqIDs,
			counts: hdr.FreqCounts,
			byID:   make(map[uint32]int64, len(hdr.FreqIDs)),
			bounds: hdr.FreqBounds,
		}
		for i, id := range f.ids {
			if i > 0 && id <= f.ids[i-1] {
				return nil, fmt.Errorf("shard: frequency ids not strictly increasing at %d", i)
			}
			if f.counts[i] < 1 {
				return nil, fmt.Errorf("shard: frequency count %d for element %d out of range", f.counts[i], id)
			}
			f.byID[id] = f.counts[i]
		}
		for s, b := range f.bounds {
			if b < 0 || (s > 0 && b < f.bounds[s-1]) {
				return nil, fmt.Errorf("shard: frequency bounds not non-decreasing at shard %d", s)
			}
		}
		rt.freq = f
	case p == EmbedCluster && hdr.Shards > 1:
		if len(hdr.Centroids) != hdr.Shards {
			return nil, fmt.Errorf("shard: %d centroids for %d shards", len(hdr.Centroids), hdr.Shards)
		}
		if hdr.PilotDim < 1 || hdr.PilotDim > maxPilotDim {
			return nil, fmt.Errorf("shard: pilot dimension %d out of range [1, %d]", hdr.PilotDim, maxPilotDim)
		}
		for s, cent := range hdr.Centroids {
			if len(cent) != hdr.PilotDim {
				return nil, fmt.Errorf("shard: centroid %d has %d dimensions, want %d", s, len(cent), hdr.PilotDim)
			}
			for _, v := range cent {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("shard: centroid %d is not finite", s)
				}
			}
		}
		cl, err := newClusterRouter(hdr.Centroids, hdr.PilotDim, hdr.PilotMaxID, hdr.PilotSeed)
		if err != nil {
			return nil, err
		}
		rt.clust = cl
	}
	return rt, nil
}

// legacyCalibrated reports whether hdr was written by a calibrated build:
// some shard carries a calibration curve. The curves themselves are not
// decoded; only their row count is checked against the shard count.
func legacyCalibrated(hdr containerHeader) (bool, error) {
	if hdr.CalX != nil && len(hdr.CalX) != hdr.Shards {
		return false, fmt.Errorf("shard: calibration curves for %d shards, want %d", len(hdr.CalX), hdr.Shards)
	}
	for _, row := range hdr.CalX {
		if len(row) > 0 {
			return true, nil
		}
	}
	return false, nil
}

func writeContainerHeader(w io.Writer, hdr containerHeader) error {
	if err := writeMagic(w); err != nil {
		return fmt.Errorf("shard: write magic: %w", err)
	}
	if err := blockio.Write(w, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(hdr)
	}); err != nil {
		return fmt.Errorf("shard: write header: %w", err)
	}
	return nil
}

// saveShard frames one shard's core stream; a nil shard becomes a
// zero-length block.
func saveShard(w io.Writer, s int, save func(io.Writer) error) error {
	if save == nil {
		save = func(io.Writer) error { return nil }
	}
	if err := blockio.Write(w, save); err != nil {
		return fmt.Errorf("shard: save shard %d: %w", s, err)
	}
	return nil
}

// fillMutation writes the shared live-mutation header fields from a
// consistent snapshot. Caller holds insertMu (so no insert or retrain swap
// can interleave between the state loads and the log copy).
func (m *mutation) fillMutation(hdr *containerHeader, deltas [][]hybrid.DeltaEntry) {
	hdr.BaseLen = m.baseLen
	hdr.NextPos = m.nextPos.Load()
	hdr.BaseSeed = m.baseSeed
	hdr.InsertedPos = make([]int, len(m.inserted))
	hdr.InsertedSets = make([][]uint32, len(m.inserted))
	for i, en := range m.inserted {
		hdr.InsertedPos[i] = en.Pos
		hdr.InsertedSets[i] = en.Set
	}
	hdr.DeltaPos = make([][]int, len(deltas))
	for s, dl := range deltas {
		hdr.DeltaPos[s] = make([]int, len(dl))
		for i, en := range dl {
			hdr.DeltaPos[s][i] = en.Pos
		}
	}
}

// Save persists the sharded index: header (including the insert log and
// pending-delta positions, so a reload answers inserted sets exactly),
// then the per-shard model streams. Like the monolithic SetIndex, the
// collection itself is not written; LoadShardedIndex needs it back.
func (x *Index) Save(w io.Writer) error {
	// Snapshot states + deltas + insert log under insertMu: retrain swaps
	// also hold it, so the snapshot is one consistent cut.
	x.insertMu.Lock()
	sts := make([]*indexShard, x.k)
	deltas := make([][]hybrid.DeltaEntry, x.k)
	for s := 0; s < x.k; s++ {
		sts[s] = x.states[s].Load()
		deltas[s] = sts[s].delta.Snapshot()
	}
	hdr := containerHeader{
		Version:     formatVersion,
		Kind:        "index",
		Shards:      x.k,
		Partitioner: int(x.part),
		MaxSubset:   x.maxSub,
		ShardSets:   make([]int, x.k),
		Globals:     make([][]int, x.k),
		IndexOpts:   x.opts,
	}
	x.fillMutation(&hdr, deltas)
	x.insertMu.Unlock()
	for s := 0; s < x.k; s++ {
		hdr.ShardSets[s] = len(sts[s].global)
		hdr.Globals[s] = sts[s].global
	}
	routerToHeader(x.route, &hdr)
	if err := writeContainerHeader(w, hdr); err != nil {
		return err
	}
	for s := 0; s < x.k; s++ {
		var save func(io.Writer) error
		if sts[s].idx != nil {
			save = sts[s].idx.Save
		}
		if err := saveShard(w, s, save); err != nil {
			return err
		}
	}
	return nil
}

// LoadShardedIndex restores a sharded index over the collection it was
// built on. c must cover the original build (the first BaseLen positions);
// sets inserted afterwards travel in the stream itself and need not be in
// c. Pending deltas are restored exactly, so lookups for inserted sets
// answer correctly the moment the load returns. A stream from a calibrated
// build has its per-shard error bounds remeasured from the sub-collections,
// because the persisted ones were measured on calibrated positions.
func LoadShardedIndex(r io.Reader, c *sets.Collection) (*Index, error) {
	if c == nil {
		return nil, fmt.Errorf("shard: load index: nil collection")
	}
	hdr, err := readContainerHeader(r, "index")
	if err != nil {
		return nil, err
	}
	if err := validateGlobals(hdr); err != nil {
		return nil, err
	}
	ms, err := decodeMutation(hdr)
	if err != nil {
		return nil, err
	}
	rt, err := routerFromHeader(hdr)
	if err != nil {
		return nil, err
	}
	remeasure, err := legacyCalibrated(hdr)
	if err != nil {
		return nil, err
	}
	if hdr.Version < 2 {
		// v1 resolved every position through the collection.
		ms.baseLen = c.Len()
		ms.nextPos = int64(c.Len())
	}
	if ms.baseLen > c.Len() {
		return nil, fmt.Errorf("shard: container was built over %d sets but the collection has %d", ms.baseLen, c.Len())
	}
	x := &Index{
		states:  make([]atomic.Pointer[indexShard], hdr.Shards),
		k:       hdr.Shards,
		part:    Partitioner(hdr.Partitioner),
		route:   rt,
		maxSub:  hdr.MaxSubset,
		queries: make([]atomic.Uint64, hdr.Shards),
		opts:    hdr.IndexOpts,
	}
	x.baseLen = ms.baseLen
	x.baseSeed = ms.baseSeed
	x.nextPos.Store(ms.nextPos)
	x.inserted = ms.inserted
	var maxID uint32
	for s := 0; s < hdr.Shards; s++ {
		sub := &sets.Collection{Sets: make([]sets.Set, 0, len(hdr.Globals[s]))}
		for _, pos := range hdr.Globals[s] {
			set, err := resolvePos(pos, ms.baseLen, c, ms.byPos)
			if err != nil {
				return nil, fmt.Errorf("shard: shard %d: %w", s, err)
			}
			sub.Append(set)
		}
		if id := sub.MaxID(); id > maxID {
			maxID = id
		}
		st := &indexShard{
			sub:    sub,
			global: hdr.Globals[s],
			delta:  hybrid.NewDeltaFrom(ms.deltas[s]),
			stat:   BuildStat{Shard: s, Sets: sub.Len()},
		}
		block, err := blockio.Read(r)
		if err != nil {
			return nil, fmt.Errorf("shard: load shard %d: %w", s, err)
		}
		if sub.Len() == 0 {
			if block.Len() != 0 {
				return nil, fmt.Errorf("shard: load shard %d: payload for an empty shard", s)
			}
			x.states[s].Store(st)
			continue
		}
		idx, err := core.LoadIndex(block, sub)
		if err != nil {
			return nil, fmt.Errorf("shard: load shard %d: %w", s, err)
		}
		if remeasure {
			idx.RemeasureBounds(dataset.CollectSubsetsWithFull(sub, hdr.MaxSubset).IndexSamples())
		}
		st.idx = idx
		st.stat.Bytes = idx.SizeBytes()
		st.stat.MaxError = idx.MaxError()
		x.states[s].Store(st)
	}
	x.maxID.Store(maxID)
	return x, nil
}

// Save persists the sharded estimator, including the container-level exact
// overrides (sorted for deterministic bytes), any measured bounds, and the
// live-mutation state.
func (e *Estimator) Save(w io.Writer) error {
	e.insertMu.Lock()
	sts := make([]*estShard, e.k)
	deltas := make([][]hybrid.DeltaEntry, e.k)
	for s := 0; s < e.k; s++ {
		sts[s] = e.states[s].Load()
		deltas[s] = sts[s].delta.Snapshot()
	}
	hdr := containerHeader{
		Version:     formatVersion,
		Kind:        "card",
		Shards:      e.k,
		Partitioner: int(e.part),
		MaxSubset:   e.maxSub,
		ShardSets:   make([]int, e.k),
		Globals:     make([][]int, e.k),
		EstOpts:     e.opts,
	}
	e.fillMutation(&hdr, deltas)
	e.auxMu.RLock()
	hdr.Bounds = e.bounds
	hdr.AuxKeys = make([]string, 0, len(e.aux))
	for k := range e.aux {
		hdr.AuxKeys = append(hdr.AuxKeys, k)
	}
	sort.Strings(hdr.AuxKeys)
	hdr.AuxVals = make([]float64, len(hdr.AuxKeys))
	for i, k := range hdr.AuxKeys {
		hdr.AuxVals[i] = e.aux[k].card
	}
	e.auxMu.RUnlock()
	e.insertMu.Unlock()
	for s := 0; s < e.k; s++ {
		hdr.ShardSets[s] = sts[s].stat.Sets
		hdr.Globals[s] = sts[s].global
	}
	routerToHeader(e.route, &hdr)
	if err := writeContainerHeader(w, hdr); err != nil {
		return err
	}
	for s := 0; s < e.k; s++ {
		var save func(io.Writer) error
		if sts[s].est != nil {
			save = sts[s].est.Save
		}
		if err := saveShard(w, s, save); err != nil {
			return err
		}
	}
	return nil
}

// LoadShardedEstimator restores an estimator saved by Save. The maximum
// accepted element id is recovered from the shard models; pending deltas
// are restored exactly. Retraining additionally needs AttachCollection. A
// stream from a calibrated build loads without its measured bounds, which
// were taken with the curves applied.
func LoadShardedEstimator(r io.Reader) (*Estimator, error) {
	hdr, err := readContainerHeader(r, "card")
	if err != nil {
		return nil, err
	}
	if len(hdr.AuxKeys) != len(hdr.AuxVals) {
		return nil, fmt.Errorf("shard: header lists %d override keys for %d values", len(hdr.AuxKeys), len(hdr.AuxVals))
	}
	if hdr.Bounds != nil && len(hdr.Bounds) != hdr.Shards {
		return nil, fmt.Errorf("shard: header lists %d bounds for %d shards", len(hdr.Bounds), hdr.Shards)
	}
	if hdr.Version >= 2 {
		if err := validateGlobals(hdr); err != nil {
			return nil, err
		}
	}
	ms, err := decodeMutation(hdr)
	if err != nil {
		return nil, err
	}
	rt, err := routerFromHeader(hdr)
	if err != nil {
		return nil, err
	}
	calibrated, err := legacyCalibrated(hdr)
	if err != nil {
		return nil, err
	}
	if calibrated {
		hdr.Bounds = nil
	}
	e := &Estimator{
		states:  make([]atomic.Pointer[estShard], hdr.Shards),
		k:       hdr.Shards,
		part:    Partitioner(hdr.Partitioner),
		route:   rt,
		maxSub:  hdr.MaxSubset,
		aux:     make(map[string]auxOverride, len(hdr.AuxKeys)),
		bounds:  hdr.Bounds,
		queries: make([]atomic.Uint64, hdr.Shards),
		opts:    hdr.EstOpts,
	}
	e.baseLen = ms.baseLen
	e.baseSeed = ms.baseSeed
	e.nextPos.Store(ms.nextPos)
	e.inserted = ms.inserted
	for i, k := range hdr.AuxKeys {
		set, err := sets.FromKey(k)
		if err != nil {
			return nil, fmt.Errorf("shard: override %d: %w", i, err)
		}
		e.aux[k] = auxOverride{set: set, card: hdr.AuxVals[i]}
	}
	var maxID uint32
	for s := 0; s < hdr.Shards; s++ {
		st := &estShard{
			delta: hybrid.NewDeltaFrom(ms.deltas[s]),
			stat:  BuildStat{Shard: s, Sets: hdr.ShardSets[s]},
		}
		if hdr.Version >= 2 {
			st.global = hdr.Globals[s]
		}
		if e.bounds != nil {
			st.stat.ErrBound = e.bounds[s]
		}
		block, err := blockio.Read(r)
		if err != nil {
			return nil, fmt.Errorf("shard: load shard %d: %w", s, err)
		}
		if hdr.ShardSets[s] == 0 {
			if block.Len() != 0 {
				return nil, fmt.Errorf("shard: load shard %d: payload for an empty shard", s)
			}
			e.states[s].Store(st)
			continue
		}
		est, err := core.LoadCardinalityEstimator(block)
		if err != nil {
			return nil, fmt.Errorf("shard: load shard %d: %w", s, err)
		}
		st.est = est
		st.stat.Bytes = est.SizeBytes()
		if id := est.MaxID(); id > maxID {
			maxID = id
		}
		e.states[s].Store(st)
	}
	e.maxID.Store(maxID)
	return e, nil
}

// Save persists the sharded membership filter, including the live-mutation
// state.
func (f *Filter) Save(w io.Writer) error {
	f.insertMu.Lock()
	sts := make([]*fltShard, f.k)
	deltas := make([][]hybrid.DeltaEntry, f.k)
	for s := 0; s < f.k; s++ {
		sts[s] = f.states[s].Load()
		deltas[s] = sts[s].delta.Snapshot()
	}
	hdr := containerHeader{
		Version:     formatVersion,
		Kind:        "member",
		Shards:      f.k,
		Partitioner: int(f.part),
		MaxSubset:   f.maxSub,
		ShardSets:   make([]int, f.k),
		Globals:     make([][]int, f.k),
		FltOpts:     f.opts,
	}
	f.fillMutation(&hdr, deltas)
	f.insertMu.Unlock()
	routerToHeader(f.route, &hdr)
	for s := 0; s < f.k; s++ {
		hdr.ShardSets[s] = sts[s].stat.Sets
		hdr.Globals[s] = sts[s].global
	}
	if err := writeContainerHeader(w, hdr); err != nil {
		return err
	}
	for s := 0; s < f.k; s++ {
		var save func(io.Writer) error
		if sts[s].flt != nil {
			save = sts[s].flt.Save
		}
		if err := saveShard(w, s, save); err != nil {
			return err
		}
	}
	return nil
}

// LoadShardedFilter restores a filter saved by Save; pending deltas are
// restored exactly. Retraining additionally needs AttachCollection.
func LoadShardedFilter(r io.Reader) (*Filter, error) {
	hdr, err := readContainerHeader(r, "member")
	if err != nil {
		return nil, err
	}
	if hdr.Version >= 2 {
		if err := validateGlobals(hdr); err != nil {
			return nil, err
		}
	}
	ms, err := decodeMutation(hdr)
	if err != nil {
		return nil, err
	}
	rt, err := routerFromHeader(hdr)
	if err != nil {
		return nil, err
	}
	f := &Filter{
		states:  make([]atomic.Pointer[fltShard], hdr.Shards),
		k:       hdr.Shards,
		part:    Partitioner(hdr.Partitioner),
		route:   rt,
		maxSub:  hdr.MaxSubset,
		queries: make([]atomic.Uint64, hdr.Shards),
		opts:    hdr.FltOpts,
	}
	f.baseLen = ms.baseLen
	f.baseSeed = ms.baseSeed
	f.nextPos.Store(ms.nextPos)
	f.inserted = ms.inserted
	var maxID uint32
	for s := 0; s < hdr.Shards; s++ {
		st := &fltShard{
			delta: hybrid.NewDeltaFrom(ms.deltas[s]),
			stat:  BuildStat{Shard: s, Sets: hdr.ShardSets[s]},
		}
		if hdr.Version >= 2 {
			st.global = hdr.Globals[s]
		}
		block, err := blockio.Read(r)
		if err != nil {
			return nil, fmt.Errorf("shard: load shard %d: %w", s, err)
		}
		if hdr.ShardSets[s] == 0 {
			if block.Len() != 0 {
				return nil, fmt.Errorf("shard: load shard %d: payload for an empty shard", s)
			}
			f.states[s].Store(st)
			continue
		}
		flt, err := core.LoadMembershipFilter(block)
		if err != nil {
			return nil, fmt.Errorf("shard: load shard %d: %w", s, err)
		}
		st.flt = flt
		st.stat.Bytes = flt.SizeBytes()
		if id := flt.MaxID(); id > maxID {
			maxID = id
		}
		f.states[s].Store(st)
	}
	f.maxID.Store(maxID)
	return f, nil
}

// SniffSharded reports whether the stream served by ra begins with the
// sharded-container magic, without consuming it.
func SniffSharded(ra io.ReaderAt) bool {
	var b [len(Magic)]byte
	if _, err := ra.ReadAt(b[:], 0); err != nil {
		return false
	}
	return IsShardedMagic(b[:])
}
