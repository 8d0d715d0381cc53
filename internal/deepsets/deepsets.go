// Package deepsets implements the paper's learned set models: the
// permutation-invariant DeepSets architecture (§3.2, Figure 2) and its
// compressed variant (§5, Figure 4).
//
// Uncompressed (LSM):   y = ρ( Σ_{x∈X} φ(embed(x)) )
// Compressed (CLSM):    y = ρ( Σ_{x∈X} φ(embed₁(sv₁(x)) ‖ … ‖ embed_ns(sv_ns(x))) )
//
// In the compressed model each element id is split into ns sub-elements
// (quotient/remainder chains, internal/compress); each sub-element position
// has its own small embedding table. The per-element φ transformation is
// applied to the concatenated sub-embeddings *before* the sum pool — this
// preserves the binding between an element's quotient and remainder, which
// a plain sum would destroy (the X-vs-Z counterexample in §5).
//
// Inference moves ρ's first dense layer inside the pool where the pool is
// linear. For sum pooling W₁·Σφ(x) + b₁ = Σ W₁·φ(x) + b₁, and mean pooling
// scales the same sum by 1/k, so a prediction pools the per-element rows
// r(x) = W₁·φ(x), adds b₁, applies the layer's activation and runs the
// rest of ρ. The rows are a pure function of the element id, which is what
// PhiTable and PhiCache store (phi.go). Every inference path pools the same
// rows in the same order, so they agree bit for bit; the reordered sums
// differ from the unfolded forward (the tape, and the training pass in
// step.go) by about 1e-15 relative. Max pooling is not linear: it pools
// φ(x) and runs all of ρ.
package deepsets

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"setlearn/internal/compress"
	"setlearn/internal/mat"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
)

// Pooling selects the permutation-invariant aggregation of the per-element
// φ outputs (§3.2 lists max, mean, sum, and log-sum-exp; sum is the
// default and the only multiplicity-aware choice, which matters for
// cardinality targets). Log-sum-exp is not offered: no structure selects it.
type Pooling int

// Supported pooling operations.
const (
	SumPool Pooling = iota
	MeanPool
	MaxPool
)

// String implements fmt.Stringer.
func (p Pooling) String() string {
	switch p {
	case SumPool:
		return "sum"
	case MeanPool:
		return "mean"
	case MaxPool:
		return "max"
	default:
		return fmt.Sprintf("Pooling(%d)", int(p))
	}
}

// Config describes a model. The zero value is not usable; call Validate or
// construct via New which applies defaults.
type Config struct {
	MaxID uint32 // largest element id the model accepts

	EmbedDim  int   // per-(sub-)element embedding dimensionality
	PhiHidden []int // hidden layer sizes of the per-element network φ
	PhiOut    int   // output dimensionality of φ (the pooled representation)
	RhoHidden []int // hidden layer sizes of the set-level network ρ

	// Compressed selects the CLSM variant; NS is the number of
	// sub-elements (≥2) and SVD the divisor (0 = optimal ⌈maxID^(1/ns)⌉;
	// larger values trade memory back for accuracy, Table 6).
	Compressed bool
	NS         int
	SVD        uint32

	HiddenAct nn.Activation // activation of hidden layers (default ReLU)
	OutputAct nn.Activation // final activation (default Sigmoid, §4)
	Pool      Pooling       // aggregation over φ outputs (default SumPool)

	Seed int64 // weight-initialization seed
}

func (c *Config) applyDefaults() {
	if c.EmbedDim == 0 {
		c.EmbedDim = 8
	}
	if c.PhiOut == 0 {
		c.PhiOut = 32
	}
	if len(c.PhiHidden) == 0 {
		c.PhiHidden = []int{c.PhiOut}
	}
	if c.HiddenAct == nn.Identity {
		c.HiddenAct = nn.ReLU
	}
	// OutputAct zero value is Identity, a legitimate choice (digit sum);
	// regression/classification builders set Sigmoid explicitly.
	if c.Compressed {
		if c.NS == 0 {
			c.NS = 2
		}
		if c.SVD == 0 && c.NS >= 2 {
			// The ids 0..MaxID number MaxID+1, which wraps to 0 in uint32
			// at MaxID 2^32−1; clamp the count there instead. No d^NS
			// equals 2^32−1 (3·5·17·257·65537 is no perfect power), so the
			// divisor for 2^32−1 is the one 2^32 ids need.
			c.SVD = compress.Divisor(uint32(min(uint64(c.MaxID)+1, math.MaxUint32)), c.NS)
		}
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.EmbedDim <= 0 || c.PhiOut <= 0 {
		return fmt.Errorf("deepsets: EmbedDim and PhiOut must be positive (%d, %d)", c.EmbedDim, c.PhiOut)
	}
	if c.Compressed {
		if c.NS < 2 {
			return fmt.Errorf("deepsets: compressed model needs NS ≥ 2, got %d", c.NS)
		}
		if c.SVD < 2 {
			return fmt.Errorf("deepsets: compressed model needs SVD ≥ 2, got %d", c.SVD)
		}
	}
	return nil
}

// Model is a trained or trainable learned set model.
type Model struct {
	cfg    Config
	embeds []*nn.Embedding // 1 table (LSM) or NS tables (CLSM)
	phi    *nn.MLP
	rho    *nn.MLP
	params []*nn.Param

	// rhoTail is the part of ρ a prediction runs on the pooled rows: all of
	// ρ under max pooling, ρ after its first layer under sum and mean
	// pooling (nil when ρ has no hidden layer). It shares ρ's layers.
	rhoTail *nn.MLP

	// accel is the optional φ fast path (phi.go); atomic so an accel can be
	// attached or cleared while predictor pools are serving queries.
	accel atomic.Pointer[accelBox]
}

// New constructs a model with freshly initialized weights.
func New(cfg Config) (*Model, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg}

	var phiIn int
	if cfg.Compressed {
		vocabs := compress.VocabSizes(cfg.MaxID, cfg.SVD, cfg.NS)
		for i, v := range vocabs {
			m.embeds = append(m.embeds, nn.NewEmbedding(fmt.Sprintf("emb%d", i), v, cfg.EmbedDim, rng))
		}
		phiIn = cfg.NS * cfg.EmbedDim
	} else {
		m.embeds = []*nn.Embedding{nn.NewEmbedding("emb", int(cfg.MaxID)+1, cfg.EmbedDim, rng)}
		phiIn = cfg.EmbedDim
	}

	phiSizes := append([]int{phiIn}, cfg.PhiHidden...)
	phiSizes = append(phiSizes, cfg.PhiOut)
	m.phi = nn.NewMLP("phi", phiSizes, cfg.HiddenAct, cfg.HiddenAct, rng)

	rhoSizes := append([]int{cfg.PhiOut}, cfg.RhoHidden...)
	rhoSizes = append(rhoSizes, 1)
	m.rho = nn.NewMLP("rho", rhoSizes, cfg.HiddenAct, cfg.OutputAct, rng)
	switch {
	case !cfg.folded():
		m.rhoTail = m.rho
	case len(m.rho.Layers) > 1:
		m.rhoTail = &nn.MLP{Layers: m.rho.Layers[1:]}
	}

	for _, e := range m.embeds {
		m.params = append(m.params, e.Params()...)
	}
	m.params = append(m.params, m.phi.Params()...)
	m.params = append(m.params, m.rho.Params()...)
	return m, nil
}

// folded reports whether predictions pool the rows W₁·φ(x) rather than
// φ(x): true for the linear sum and mean pooling, false for max pooling.
func (c Config) folded() bool { return c.Pool != MaxPool }

// rowWidth is the width of the per-element row a prediction pools, and
// that PhiTable and PhiCache store: the output width of ρ's first layer
// (RhoHidden[0], or 1 when ρ has no hidden layer) for folded models,
// PhiOut under max pooling.
func (c Config) rowWidth() int {
	switch {
	case !c.folded():
		return c.PhiOut
	case len(c.RhoHidden) > 0:
		return c.RhoHidden[0]
	default:
		return 1
	}
}

// Config returns the model configuration (with defaults applied).
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int { return nn.NumParams(m.params) }

// SizeBytes returns the serialized model size (float32 weights), the
// memory measure used throughout the paper's evaluation.
func (m *Model) SizeBytes() int { return nn.SizeBytes(m.params) }

// EmbeddingSizeBytes returns the portion of SizeBytes spent on embedding
// tables — the term compression attacks.
func (m *Model) EmbeddingSizeBytes() int {
	var ps []*nn.Param
	for _, e := range m.embeds {
		ps = append(ps, e.Params()...)
	}
	return nn.SizeBytes(ps)
}

// Predictor holds preallocated scratch for tape-free single-query
// inference. It is not safe for concurrent use; create one per goroutine.
type Predictor struct {
	m        *Model
	catBuf   []float64
	pool     []float64 // pooled rows (rowWidth)
	phiS     *nn.InferScratch
	rhoS     *nn.InferScratch // scratch for m.rhoTail; nil when it is
	partsBuf []uint32
	rowBuf   []float64 // a folded row computed here, or a φ-cache hit (rowWidth)

	// Per-batch memo: within one PredictBatch call, each distinct element id
	// computes its row (or hits the shared cache) at most once. memoIdx maps
	// id to an offset into memoSlab; both are reset at batch start, so no
	// eviction policy is needed.
	memoOn   bool
	memoIdx  map[uint32]int32
	memoSlab []float64
}

// NewPredictor returns inference scratch bound to m.
func (m *Model) NewPredictor() *Predictor {
	in := m.cfg.EmbedDim
	if m.cfg.Compressed {
		in *= m.cfg.NS
	}
	w := m.cfg.rowWidth()
	p := &Predictor{
		m:        m,
		catBuf:   make([]float64, in),
		pool:     make([]float64, w),
		phiS:     m.phi.NewInferScratch(),
		partsBuf: make([]uint32, 0, 8),
		rowBuf:   make([]float64, w),
	}
	if m.rhoTail != nil {
		p.rhoS = m.rhoTail.NewInferScratch()
	}
	return p
}

// phiInput validates id and prepares the φ input vector: the element's
// embedding row (LSM) or the concatenated sub-embeddings (CLSM).
func (p *Predictor) phiInput(id uint32) []float64 {
	m := p.m
	if id > m.cfg.MaxID {
		panic(fmt.Sprintf("deepsets: element id %d exceeds MaxID %d", id, m.cfg.MaxID))
	}
	if m.cfg.Compressed {
		parts := compress.Compress(p.partsBuf[:0], id, m.cfg.SVD, m.cfg.NS)
		for i, part := range parts {
			copy(p.catBuf[i*m.cfg.EmbedDim:], m.embeds[i].Row(int(part)))
		}
		return p.catBuf
	}
	return m.embeds[0].Row(int(id))
}

// phiFor computes φ for one element into the scratch and returns it.
func (p *Predictor) phiFor(id uint32) []float64 {
	return p.m.phi.Infer(p.phiS, p.phiInput(id))
}

// rowFor computes one element's row from the weights: W₁·φ(x) for folded
// models, φ(x) under max pooling. Every accel stores exactly these bits.
// The returned slice is scratch — consume before the next call.
func (p *Predictor) rowFor(id uint32) []float64 {
	phi := p.phiFor(id)
	if !p.m.cfg.folded() {
		return phi
	}
	mat.MatVec(p.rowBuf, p.m.rho.Layers[0].W.Value, phi)
	return p.rowBuf
}

// rowOf returns one element's row through the cheapest available source:
// the per-batch memo, then the installed accel (table or sharded cache),
// then rowFor. The returned slice is scratch — consume before the next
// rowOf call.
func (p *Predictor) rowOf(accel PhiAccel, id uint32) []float64 {
	w := len(p.pool)
	if p.memoOn {
		if off, ok := p.memoIdx[id]; ok {
			return p.memoSlab[off : int(off)+w]
		}
	}
	var v []float64
	if accel != nil {
		v = accel.row(p, id)
	} else {
		v = p.rowFor(id)
	}
	if p.memoOn {
		off := len(p.memoSlab)
		p.memoSlab = append(p.memoSlab, v...)
		p.memoIdx[id] = int32(off)
		return p.memoSlab[off : off+w]
	}
	return v
}

// pooled pools the rows of s into p.pool.
func (p *Predictor) pooled(s sets.Set) {
	if len(s) == 0 {
		panic("deepsets: empty set")
	}
	m := p.m
	accel := m.PhiAccel()
	if m.cfg.Pool == MaxPool {
		mat.Fill(p.pool, math.Inf(-1))
	} else {
		mat.Fill(p.pool, 0)
	}
	for _, id := range s {
		row := p.rowOf(accel, id)
		if m.cfg.Pool == MaxPool {
			for i, v := range row {
				if v > p.pool[i] {
					p.pool[i] = v
				}
			}
		} else {
			mat.AddTo(p.pool, row)
		}
	}
	if m.cfg.Pool == MeanPool {
		mat.Scale(p.pool, 1/float64(len(s)))
	}
}

// predict pools the rows of s, runs the rest of ρ on the pool and returns
// the output, or the output layer's pre-activation value when logit is
// set. For folded models the pool already carries W₁, so ρ's first layer
// adds only its bias and activation.
func (p *Predictor) predict(s sets.Set, logit bool) float64 {
	p.pooled(s)
	m := p.m
	x := p.pool
	if m.cfg.folded() {
		first := m.rho.Layers[0]
		mat.AddTo(x, first.B.Vec())
		if m.rhoTail == nil {
			if !logit {
				first.Act.ApplyVec(x)
			}
			return x[0]
		}
		first.Act.ApplyVec(x)
	}
	if logit {
		return m.rhoTail.InferLogit(p.rhoS, x)[0]
	}
	return m.rhoTail.Infer(p.rhoS, x)[0]
}

// Predict returns the model output (after the output activation) for s.
func (p *Predictor) Predict(s sets.Set) float64 { return p.predict(s, false) }

// PredictLogit returns the pre-activation output for s.
func (p *Predictor) PredictLogit(s sets.Set) float64 { return p.predict(s, true) }

// PooledVector copies the pooled φ representation of s — the model's
// permutation-invariant set embedding, before ρ — into dst (grown as
// needed) and returns it. Useful for clustering or comparing sets by
// learned content similarity. Under sum and mean pooling it runs φ per
// element, since the accel and the prediction path pool the folded rows
// W₁·φ(x) instead. Panics on an empty set or out-of-vocabulary elements,
// like Predict.
func (p *Predictor) PooledVector(dst []float64, s sets.Set) []float64 {
	m := p.m
	out := m.cfg.PhiOut
	if cap(dst) < out {
		dst = make([]float64, out)
	} else {
		dst = dst[:out]
	}
	if !m.cfg.folded() {
		p.pooled(s)
		copy(dst, p.pool)
		return dst
	}
	if len(s) == 0 {
		panic("deepsets: empty set")
	}
	mat.Fill(dst, 0)
	for _, id := range s {
		mat.AddTo(dst, p.phiFor(id))
	}
	if m.cfg.Pool == MeanPool {
		mat.Scale(dst, 1/float64(len(s)))
	}
	return dst
}

// beginBatch arms the per-batch row memo; endBatch disarms it. The memo slab
// is reused across batches, the id index is cleared each time.
func (p *Predictor) beginBatch() {
	// A φ-table already serves every id as a zero-copy O(1) row read; the
	// memo would only add map traffic on top. Memoize for the cache,
	// uncached, and any other accel mode.
	if _, ok := p.m.PhiAccel().(*PhiTable); ok {
		return
	}
	if p.memoIdx == nil {
		p.memoIdx = make(map[uint32]int32, 64)
	} else {
		clear(p.memoIdx)
	}
	p.memoSlab = p.memoSlab[:0]
	p.memoOn = true
}

func (p *Predictor) endBatch() { p.memoOn = false }

// PredictBatch evaluates the model for every query in qs, writing outputs
// into dst (grown if needed) and returning it. Within the batch each
// distinct element id computes its row at most once — repeated ids across
// queries are served from a per-batch memo — and ρ scratch is reused
// across queries.
func (p *Predictor) PredictBatch(dst []float64, qs []sets.Set) []float64 {
	if cap(dst) < len(qs) {
		dst = make([]float64, len(qs))
	} else {
		dst = dst[:len(qs)]
	}
	p.beginBatch()
	defer p.endBatch()
	for i, q := range qs {
		dst[i] = p.predict(q, false)
	}
	return dst
}

// PredictorPool is a concurrency-safe wrapper around per-goroutine
// Predictors, letting one trained structure serve parallel query streams.
type PredictorPool struct {
	m    *Model
	pool sync.Pool
}

// NewPredictorPool returns a pool bound to m.
func (m *Model) NewPredictorPool() *PredictorPool {
	p := &PredictorPool{m: m}
	p.pool.New = func() any { return m.NewPredictor() }
	return p
}

// Predict evaluates the model for s; safe for concurrent use. The pooled
// predictor is returned via defer so a panicking query (e.g. id > MaxID)
// does not leak it.
func (p *PredictorPool) Predict(s sets.Set) float64 {
	pred := p.pool.Get().(*Predictor)
	defer p.pool.Put(pred)
	return pred.Predict(s)
}

// PredictLogit evaluates the pre-activation output for s; safe for
// concurrent use.
func (p *PredictorPool) PredictLogit(s sets.Set) float64 {
	pred := p.pool.Get().(*Predictor)
	defer p.pool.Put(pred)
	return pred.PredictLogit(s)
}

// PredictBatch evaluates every query in qs with one pooled predictor,
// amortizing scratch and row-memo setup across the batch; safe for concurrent
// use.
func (p *PredictorPool) PredictBatch(dst []float64, qs []sets.Set) []float64 {
	pred := p.pool.Get().(*Predictor)
	defer p.pool.Put(pred)
	return pred.PredictBatch(dst, qs)
}

// PooledVector computes the pooled φ embedding of s into dst; safe for
// concurrent use.
func (p *PredictorPool) PooledVector(dst []float64, s sets.Set) []float64 {
	pred := p.pool.Get().(*Predictor)
	defer p.pool.Put(pred)
	return pred.PooledVector(dst, s)
}
