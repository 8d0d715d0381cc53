// Package core is the public facade of the library: it builds the three
// learned structures of the paper over a collection of sets —
//
//   - SetIndex (§4.1): query subset → first position in the collection,
//   - CardinalityEstimator (§4.2): query subset → number of supersets,
//   - MembershipFilter (§4.3): learned Bloom filter with a backup filter
//     that removes false negatives,
//
// wiring together training-data generation, DeepSets training (optionally
// compressed, §5), guided learning with outlier eviction, and the hybrid
// structure with per-range error bounds (§6, Algorithm 2).
package core

import (
	"fmt"

	"setlearn/internal/deepsets"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
	"setlearn/internal/train"
)

// ModelOptions selects the learned-model variant and training budget shared
// by all three tasks. Zero values mean sensible defaults.
type ModelOptions struct {
	// Compressed selects CLSM (per-element compression, §5) over LSM.
	Compressed bool
	NS         int    // sub-elements per element (default 2)
	SVD        uint32 // compression divisor (0 = optimal; Table 6 tunes this)

	EmbedDim  int   // default 8
	PhiHidden []int // default [32]
	PhiOut    int   // default 32
	RhoHidden []int // default [32]

	Epochs    int     // default 20
	LR        float64 // default 0.005
	BatchSize int     // default 32
	Workers   int     // default GOMAXPROCS
	Seed      int64
}

func (o ModelOptions) modelConfig(maxID uint32) deepsets.Config {
	cfg := deepsets.Config{
		MaxID:      maxID,
		EmbedDim:   o.EmbedDim,
		PhiHidden:  o.PhiHidden,
		PhiOut:     o.PhiOut,
		RhoHidden:  o.RhoHidden,
		Compressed: o.Compressed,
		NS:         o.NS,
		SVD:        o.SVD,
		OutputAct:  nn.Sigmoid,
		Seed:       o.Seed,
	}
	if cfg.PhiOut == 0 {
		cfg.PhiOut = 32
	}
	if len(cfg.PhiHidden) == 0 {
		cfg.PhiHidden = []int{32}
	}
	if len(cfg.RhoHidden) == 0 {
		cfg.RhoHidden = []int{32}
	}
	return cfg
}

func (o ModelOptions) trainConfig() train.Config {
	return train.Config{
		Epochs:    o.Epochs,
		LR:        o.LR,
		BatchSize: o.BatchSize,
		Workers:   o.Workers,
		Seed:      o.Seed + 1,
	}
}

// validateBuild rejects collections the structures cannot be built on and
// subset caps their own loader would reject.
func validateBuild(c *sets.Collection, maxSubset int) error {
	if maxSubset < 0 || maxSubset > maxSubsetBound {
		return fmt.Errorf("core: subset cap %d out of range [0, %d]", maxSubset, maxSubsetBound)
	}
	if c == nil || c.Len() == 0 {
		return fmt.Errorf("core: empty collection")
	}
	for i, s := range c.Sets {
		if len(s) == 0 {
			return fmt.Errorf("core: set at position %d is empty", i)
		}
	}
	return nil
}
