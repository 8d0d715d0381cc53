package core

import (
	"setlearn/internal/deepsets"
	"setlearn/internal/nn"
)

// FastPathOptions selects the φ acceleration mode for a trained structure.
// After training, an element's row — W₁·φ(embed(x)) with ρ's first weight
// matrix folded in, for sum and mean pooling — is a pure function of the
// element id, so rows can be precomputed (PhiTable) or cached (sharded
// PhiCache) — turning a size-k query into k row adds plus the rest of ρ,
// with bit-identical results.
//
// The sharded containers publish the options to their query paths through
// atomic.Pointer, so a value is immutable once installed: build a new
// options value and call EnableFastPath again to change modes. The
// shard package's TestMutationFastPathToggle checks this under -race.
type FastPathOptions struct {
	// TableBudgetBytes enables the full φ-table when
	// deepsets.PhiTableBytes — (MaxID+1) × RhoHidden[0] × 8 at the core
	// defaults — fits within it. 0 disables the table.
	TableBudgetBytes int
	// CacheBytes sizes the φ-cache fallback (64 lock shards) used when the
	// table does not fit. 0 disables the fallback.
	CacheBytes int
}

// DefaultFastPath is applied automatically after Build* and Load*: a full
// φ-table for universes up to 32 MiB of rows, with an 8 MiB sharded cache
// as the large-universe fallback.
var DefaultFastPath = FastPathOptions{
	TableBudgetBytes: 32 << 20,
	CacheBytes:       8 << 20,
}

// serveModel readies a freshly trained model for serving, before a build
// measures anything on it: it rounds the weights to the float32 precision
// a save keeps, so a built structure and its reload serve one model, and
// installs the default fast path. The index's error bounds and the
// filter's false negatives are then measured on exactly what is served.
func serveModel(m *deepsets.Model) {
	nn.RoundToFloat32(m.Params())
	enableFastPath(m, DefaultFastPath)
}

// enableFastPath installs the accel that o selects on m and reports the
// resulting mode: "table", "cache", or "off".
func enableFastPath(m *deepsets.Model, o FastPathOptions) string {
	if o.TableBudgetBytes > 0 && deepsets.PhiTableBytes(m.Config()) <= o.TableBudgetBytes {
		m.SetPhiAccel(m.BuildPhiTable())
		return "table"
	}
	if o.CacheBytes > 0 {
		m.SetPhiAccel(m.NewPhiCache(o.CacheBytes, 64))
		return "cache"
	}
	m.SetPhiAccel(nil)
	return "off"
}

// EnableFastPath (re)configures the index's φ acceleration and reports the
// selected mode ("table", "cache", or "off"). Safe to call while queries
// are being served; results are unchanged in every mode.
func (i *SetIndex) EnableFastPath(o FastPathOptions) string {
	return enableFastPath(i.hybrid.Model(), o)
}

// PhiStats reports the φ accel counters; ok is false when inference runs
// uncached.
func (i *SetIndex) PhiStats() (deepsets.AccelStats, bool) {
	return i.hybrid.Model().AccelStats()
}

// MaxID returns the largest element id the index's model accepts.
func (i *SetIndex) MaxID() uint32 { return i.hybrid.Model().Config().MaxID }

// EnableFastPath (re)configures the estimator's φ acceleration; see
// SetIndex.EnableFastPath.
func (e *CardinalityEstimator) EnableFastPath(o FastPathOptions) string {
	return enableFastPath(e.hybrid.Model(), o)
}

// PhiStats reports the φ accel counters; ok is false when inference runs
// uncached.
func (e *CardinalityEstimator) PhiStats() (deepsets.AccelStats, bool) {
	return e.hybrid.Model().AccelStats()
}

// MaxID returns the largest element id the estimator's model accepts.
func (e *CardinalityEstimator) MaxID() uint32 { return e.hybrid.Model().Config().MaxID }

// EnableFastPath (re)configures the filter's φ acceleration; see
// SetIndex.EnableFastPath.
func (f *MembershipFilter) EnableFastPath(o FastPathOptions) string {
	return enableFastPath(f.model, o)
}

// PhiStats reports the φ accel counters; ok is false when inference runs
// uncached.
func (f *MembershipFilter) PhiStats() (deepsets.AccelStats, bool) {
	return f.model.AccelStats()
}

// MaxID returns the largest element id the filter's model accepts.
func (f *MembershipFilter) MaxID() uint32 { return f.model.Config().MaxID }
