package shard

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"setlearn/internal/blockio"
	"setlearn/internal/core"
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
	ShardSets   []int    // trained sets per shard; 0 marks an empty shard (no model)
	Globals     [][]int  // per-shard local → global position; nil when no shard has a map (v1 estimator/filter)
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
	case p == 1:
		// The removed position-range partitioner. Any shard is correct for
		// an insert (its delta serves the set exactly), and the index
		// fan-in already takes the minimum over all shards, which is the
		// first hit in range order, so the stream serves the same answers
		// under hash routing.
		hdr.Partitioner = int(HashBySet)
	case p == HashBySet:
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

// mutationState is the decoded v2 live-mutation header state.
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

// resolveSub rebuilds a shard's sub-collection from its position map:
// base-collection positions resolve through c, later ones through the
// insert log.
func resolveSub(global []int, baseLen int, c *sets.Collection, byPos map[int]sets.Set) (*sets.Collection, error) {
	sub := &sets.Collection{Sets: make([]sets.Set, 0, len(global))}
	for _, pos := range global {
		switch set, logged := byPos[pos]; {
		case pos >= 0 && pos < baseLen:
			sub.Append(c.At(pos))
		case logged:
			sub.Append(set)
		default:
			return nil, fmt.Errorf("position %d outside the collection and the insert log", pos)
		}
	}
	return sub, nil
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
// (nothing for stateless hash routing or the K=1 degenerate forms).
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
	rt := newRouter(hdr.Shards)
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
		// The pilot is rebuilt by attachPilot, once the shard models are
		// loaded.
	}
	return rt, nil
}

// attachPilot rebuilds the cluster router's pilot model from hdr. The build
// records the collection's largest element id, which is the largest among
// its shard models (retrains only raise those), so a larger PilotMaxID is
// corrupt and is rejected before it sizes the pilot's embedding table.
// maxID is the largest element id of the loaded shard models.
func (r *router) attachPilot(hdr containerHeader, maxID uint32) error {
	if Partitioner(hdr.Partitioner) != EmbedCluster || hdr.Shards < 2 {
		return nil
	}
	if hdr.PilotMaxID > maxID {
		return fmt.Errorf("shard: pilot vocabulary %d exceeds the shard models' largest element id %d", hdr.PilotMaxID, maxID)
	}
	cl, err := newClusterRouter(hdr.Centroids, hdr.PilotDim, hdr.PilotMaxID, hdr.PilotSeed)
	if err != nil {
		return err
	}
	r.clust = cl
	return nil
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

// save writes the container: the header (including the insert log and
// pending-delta positions, so a reload answers inserted sets exactly), then
// the per-shard model streams. extra, when non-nil, adds kind-specific
// header fields; it runs under insertMu, in the same consistent cut as the
// deltas. Position maps are written only when some shard has one: a
// container loaded from a stream without them (v1) re-saves without them,
// and so reloads the same way.
func (c *container[M, O]) save(w io.Writer, extra func(*containerHeader)) error {
	// Snapshot states + deltas + insert log under insertMu: retrain swaps
	// also hold it, so the snapshot is one consistent cut.
	c.insertMu.Lock()
	sts := c.snapshot()
	deltas := make([][]hybrid.DeltaEntry, c.k)
	for s, st := range sts {
		deltas[s] = st.delta.Snapshot()
	}
	hdr := containerHeader{
		Version:     formatVersion,
		Kind:        c.kind.name,
		Shards:      c.k,
		Partitioner: int(c.part),
		MaxSubset:   c.maxSub,
		ShardSets:   make([]int, c.k),
	}
	*c.kind.opts(&hdr) = c.opts
	c.fillMutation(&hdr, deltas)
	if extra != nil {
		extra(&hdr)
	}
	c.insertMu.Unlock()
	globals := make([][]int, c.k)
	hasMap := false
	for s, st := range sts {
		hdr.ShardSets[s] = st.stat.Sets
		globals[s] = st.global
		hasMap = hasMap || len(st.global) > 0
	}
	if hasMap {
		hdr.Globals = globals
	}
	routerToHeader(c.route, &hdr)
	if err := writeContainerHeader(w, hdr); err != nil {
		return err
	}
	for s, st := range sts {
		err := blockio.Write(w, func(w io.Writer) error {
			if st.m == c.zero() {
				return nil // an empty shard is a zero-length block
			}
			return st.m.Save(w)
		})
		if err != nil {
			return fmt.Errorf("shard: save shard %d: %w", s, err)
		}
	}
	return nil
}

// Save persists the container (see the format above). Like the monolithic
// structures, the collection itself is not written: LoadShardedIndex needs
// it back, and a loaded estimator or filter needs AttachCollection before
// it can retrain.
func (c *container[M, O]) Save(w io.Writer) error { return c.save(w, nil) }

// fillMutation writes the shared live-mutation header fields from a
// consistent snapshot. Caller holds insertMu (so no insert or retrain swap
// can interleave between the state loads and the log copy).
func (c *container[M, O]) fillMutation(hdr *containerHeader, deltas [][]hybrid.DeltaEntry) {
	hdr.BaseLen = c.baseLen
	hdr.NextPos = c.nextPos.Load()
	hdr.BaseSeed = c.baseSeed
	hdr.InsertedPos = make([]int, len(c.inserted))
	hdr.InsertedSets = make([][]uint32, len(c.inserted))
	for i, en := range c.inserted {
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

// load restores the container from a decoded header and the K shard
// payloads that follow it in r. col is the collection the shards' position
// maps resolve through (the index needs it at load), or nil. The position
// maps are validated when present or when col is given; a stream without
// them loads with nil maps, as a container that cannot retrain. fix, when
// non-nil, adjusts each shard's state before it is published. The maximum
// accepted element id is recovered from the shard models.
func (c *container[M, O]) load(r io.Reader, hdr containerHeader, kd *kind[M, O], col *sets.Collection, fix func(int, *state[M])) error {
	if hdr.Globals != nil || col != nil {
		if err := validateGlobals(hdr); err != nil {
			return err
		}
	}
	ms, err := decodeMutation(hdr)
	if err != nil {
		return err
	}
	rt, err := routerFromHeader(hdr)
	if err != nil {
		return err
	}
	if col != nil {
		if hdr.Version < 2 {
			// v1 resolved every position through the collection.
			ms.baseLen = col.Len()
			ms.nextPos = int64(col.Len())
		}
		if ms.baseLen > col.Len() {
			return fmt.Errorf("shard: container was built over %d sets but the collection has %d", ms.baseLen, col.Len())
		}
	}
	c.init(kd, hdr.Shards, Partitioner(hdr.Partitioner), rt, hdr.MaxSubset)
	c.opts = *kd.opts(&hdr)
	c.baseLen = ms.baseLen
	c.baseSeed = ms.baseSeed
	c.nextPos.Store(ms.nextPos)
	c.inserted = ms.inserted
	var maxID uint32
	for s := 0; s < hdr.Shards; s++ {
		st := &state[M]{
			delta: hybrid.NewDeltaFrom(ms.deltas[s]),
			stat:  BuildStat{Shard: s, Sets: hdr.ShardSets[s]},
		}
		if hdr.Globals != nil {
			st.global = hdr.Globals[s]
		}
		if col != nil {
			if st.sub, err = resolveSub(st.global, ms.baseLen, col, ms.byPos); err != nil {
				return fmt.Errorf("shard: shard %d: %w", s, err)
			}
		}
		block, err := blockio.Read(r)
		if err != nil {
			return fmt.Errorf("shard: load shard %d: %w", s, err)
		}
		if hdr.ShardSets[s] == 0 {
			if block.Len() != 0 {
				return fmt.Errorf("shard: load shard %d: payload for an empty shard", s)
			}
		} else {
			if st.m, err = kd.load(block, st.sub); err != nil {
				return fmt.Errorf("shard: load shard %d: %w", s, err)
			}
			c.measure(st)
			if id := st.m.MaxID(); id > maxID {
				maxID = id
			}
		}
		if fix != nil {
			fix(s, st)
		}
		c.states[s].Store(st)
	}
	c.maxID.Store(maxID)
	return rt.attachPilot(hdr, maxID)
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
