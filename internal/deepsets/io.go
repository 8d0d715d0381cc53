package deepsets

import (
	"encoding/gob"
	"fmt"
	"io"

	"setlearn/internal/compress"
	"setlearn/internal/nn"
)

// Save writes the model configuration and weights to w. The format is the
// gob-encoded Config followed by the float32 parameter blob.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m.cfg); err != nil {
		return fmt.Errorf("deepsets: save config: %w", err)
	}
	if err := nn.SaveParams(w, m.params); err != nil {
		return fmt.Errorf("deepsets: save params: %w", err)
	}
	return nil
}

// Limits a deserialized Config must respect before Load will construct a
// model from it. They are far above anything the paper's models use (≤ 2
// hidden layers, ≤ 256 neurons, embedding dim ≤ 32) and exist so a corrupt
// or hostile stream cannot drive huge allocations, negative-size panics, or
// out-of-range enum values through New.
const (
	maxLoadDim    = 1 << 14 // any single layer width or embedding dim
	maxLoadLayers = 32      // hidden layers per MLP
	maxLoadNS     = 16      // sub-elements per element
	maxLoadParams = 1 << 27 // total scalar parameters (1 GiB at float64)
)

// validateForLoad bounds a decoded config. Zero values stand for the
// defaults New fills in.
func validateForLoad(cfg Config) error {
	checkDim := func(what string, v int) error {
		if v < 0 || v > maxLoadDim {
			return fmt.Errorf("deepsets: corrupt config: %s %d out of range", what, v)
		}
		return nil
	}
	if err := checkDim("EmbedDim", cfg.EmbedDim); err != nil {
		return err
	}
	if err := checkDim("PhiOut", cfg.PhiOut); err != nil {
		return err
	}
	if len(cfg.PhiHidden) > maxLoadLayers || len(cfg.RhoHidden) > maxLoadLayers {
		return fmt.Errorf("deepsets: corrupt config: %d+%d hidden layers",
			len(cfg.PhiHidden), len(cfg.RhoHidden))
	}
	for _, h := range cfg.PhiHidden {
		if h < 1 || h > maxLoadDim {
			return fmt.Errorf("deepsets: corrupt config: φ hidden size %d", h)
		}
	}
	for _, h := range cfg.RhoHidden {
		if h < 1 || h > maxLoadDim {
			return fmt.Errorf("deepsets: corrupt config: ρ hidden size %d", h)
		}
	}
	if cfg.NS < 0 || cfg.NS > maxLoadNS {
		return fmt.Errorf("deepsets: corrupt config: NS %d", cfg.NS)
	}
	if cfg.HiddenAct < nn.Identity || cfg.HiddenAct > nn.ReLU ||
		cfg.OutputAct < nn.Identity || cfg.OutputAct > nn.ReLU {
		return fmt.Errorf("deepsets: corrupt config: activation out of range")
	}
	if cfg.Pool < SumPool || cfg.Pool > MaxPool {
		return fmt.Errorf("deepsets: corrupt config: pooling %d", cfg.Pool)
	}
	// Bound the whole model before New allocates it, with the defaults
	// New applies. A compressed NS of 1 has no divisor to default to, so
	// Validate rejects it.
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if n := paramCount(cfg); n > maxLoadParams {
		return fmt.Errorf("deepsets: corrupt config: %d parameters exceed the load limit of %d", n, maxLoadParams)
	}
	return nil
}

// paramCount is the number of scalar parameters New allocates for cfg,
// whose defaults are applied: the embedding table(s), then every dense
// layer of φ and ρ, in×out weights plus out biases.
func paramCount(cfg Config) uint64 {
	rows, phiIn := uint64(cfg.MaxID)+1, cfg.EmbedDim
	if cfg.Compressed {
		rows = 0
		for _, v := range compress.VocabSizes(cfg.MaxID, cfg.SVD, cfg.NS) {
			rows += uint64(v)
		}
		phiIn = cfg.NS * cfg.EmbedDim
	}
	n := rows * uint64(cfg.EmbedDim)
	mlp := func(sizes []int) {
		for i := 1; i < len(sizes); i++ {
			n += uint64(sizes[i-1]+1) * uint64(sizes[i])
		}
	}
	mlp(append(append([]int{phiIn}, cfg.PhiHidden...), cfg.PhiOut))
	mlp(append(append([]int{cfg.PhiOut}, cfg.RhoHidden...), 1))
	return n
}

// Load reads a model saved by Save.
func Load(r io.Reader) (*Model, error) {
	var cfg Config
	if err := gob.NewDecoder(r).Decode(&cfg); err != nil {
		return nil, fmt.Errorf("deepsets: load config: %w", err)
	}
	if err := validateForLoad(cfg); err != nil {
		return nil, err
	}
	m, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("deepsets: load: %w", err)
	}
	if err := nn.LoadParams(r, m.params); err != nil {
		return nil, fmt.Errorf("deepsets: load params: %w", err)
	}
	return m, nil
}
