package core

import (
	"setlearn/internal/deepsets"
	"setlearn/internal/sets"
)

// The query interfaces decouple consumers of the three learned structures
// (internal/server, the CLIs) from the concrete container answering them:
// the monolithic structures built by this package and the sharded
// containers of internal/shard implement the same surface, including the
// batched fast-path forms and per-structure φ-acceleration control, so a
// server can serve either without knowing how the collection was
// partitioned.

// IndexQuerier is the query surface of a learned set index (§4.1).
type IndexQuerier interface {
	// Lookup returns the first position i with q ⊆ S[i], or -1.
	Lookup(q sets.Set) int
	// LookupEqual returns the first position with S[i] exactly q, or -1.
	LookupEqual(q sets.Set) int
	// LookupBatch answers every query in qs through the fused batch path.
	LookupBatch(dst []int, qs []sets.Set, equal bool) []int
	// Insert registers a set appended to the collection at position pos
	// without retraining (§7.2).
	Insert(s sets.Set, pos int)
	// EnableFastPath (re)configures φ acceleration and reports the mode.
	EnableFastPath(o FastPathOptions) string
	// PhiStats reports φ accel counters; ok is false when uncached.
	PhiStats() (deepsets.AccelStats, bool)
	// MaxID returns the largest element id the structure accepts.
	MaxID() uint32
	// SizeBytes returns the total structure footprint.
	SizeBytes() int
}

// CardinalityQuerier is the query surface of a cardinality estimator (§4.2).
type CardinalityQuerier interface {
	// Estimate returns the estimated number of sets containing q.
	Estimate(q sets.Set) float64
	// EstimateBatch answers every query in qs through the fused batch path.
	EstimateBatch(dst []float64, qs []sets.Set) []float64
	// Update records an exact cardinality served henceforth (§7.2).
	Update(q sets.Set, card float64)
	EnableFastPath(o FastPathOptions) string
	PhiStats() (deepsets.AccelStats, bool)
	MaxID() uint32
	SizeBytes() int
}

// MembershipQuerier is the query surface of a membership filter (§4.3).
type MembershipQuerier interface {
	// Contains reports whether q may be a subset of some set (no false
	// negatives within the trained size cap).
	Contains(q sets.Set) bool
	// ContainsBatch answers many queries, fanning out across workers.
	ContainsBatch(qs []sets.Set, workers int) []bool
	EnableFastPath(o FastPathOptions) string
	PhiStats() (deepsets.AccelStats, bool)
	MaxID() uint32
	SizeBytes() int
}

// The monolithic structures satisfy the interfaces.
var (
	_ IndexQuerier       = (*SetIndex)(nil)
	_ CardinalityQuerier = (*CardinalityEstimator)(nil)
	_ MembershipQuerier  = (*MembershipFilter)(nil)
)

// DeltaStats describes the write-side state of a mutable structure: how
// many inserted sets are pending in exact delta structures (answered by
// aux fan-in, not yet learned), how many a background retrain has absorbed
// into fresh models, and how stale the oldest pending insert is. Published
// by the server under setlearn.delta.*.
type DeltaStats struct {
	// Pending counts inserted sets not yet absorbed by a retrain.
	Pending int `json:"pending"`
	// PerShard is the pending count per shard (one entry, index 0, for
	// monolithic structures).
	PerShard []int `json:"per_shard"`
	// Absorbed counts sets folded into retrained models since build/load.
	Absorbed uint64 `json:"absorbed"`
	// OldestSecs is the age of the oldest pending insert, 0 when none.
	OldestSecs float64 `json:"oldest_secs"`
}

// Inserter is the write surface of a mutable structure: InsertSet absorbs a
// whole new set into an exact delta structure, so every query composed with
// the delta (aux fan-in) answers correctly the instant the call returns —
// no retraining on the write path. An insert is an amortized O(|s|) append
// to the delta's element arena; a query pays one 64-bit signature test per
// pending entry and an exact merge only where the signature admits a hit.
type Inserter interface {
	// InsertSet registers s as appended to the logical collection and
	// returns its assigned global position (structures without position
	// semantics return a synthetic monotone position).
	InsertSet(s sets.Set) int
	// DeltaStats reports the pending/absorbed counters above.
	DeltaStats() DeltaStats
}

// The monolithic structures and the sharded containers are all mutable.
var (
	_ Inserter = (*SetIndex)(nil)
	_ Inserter = (*CardinalityEstimator)(nil)
	_ Inserter = (*MembershipFilter)(nil)
)

// ShardStat describes one shard of a partitioned container — the per-shard
// slice of the setlearn.shard.* expvar output.
type ShardStat struct {
	Shard   int    `json:"shard"`
	Sets    int    `json:"sets"`     // sets owned by the shard (trained + pending)
	Pending int    `json:"pending"`  // inserted sets awaiting retrain
	Bytes   int    `json:"bytes"`    // shard structure footprint
	Queries uint64 `json:"queries"`  // fan-out queries routed to the shard
	PhiMode string `json:"phi_mode"` // "table", "cache", or "off"
}

// ShardStatser is implemented by partitioned containers that can report
// per-shard statistics; the server publishes them under setlearn.shard.*.
type ShardStatser interface {
	ShardStats() []ShardStat
}
