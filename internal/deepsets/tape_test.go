package deepsets

import (
	"fmt"

	"setlearn/internal/ad"
	"setlearn/internal/compress"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
)

// The tape path: the model recorded on an ad.Tape, node by node. It is
// the oracle the Stepper's gradients must equal bit for bit, and the
// unfolded forward the predictor's outputs are checked against (within
// 1e-12: the predictor pools W₁·φ, which reorders the sums).

// elementNode records the per-element pipeline (embedding, optional
// compression and concat, φ) on the tape.
func (m *Model) elementNode(t *ad.Tape, id uint32, buf []uint32) *ad.Node {
	if id > m.cfg.MaxID {
		panic(fmt.Sprintf("deepsets: element id %d exceeds MaxID %d", id, m.cfg.MaxID))
	}
	var in *ad.Node
	if m.cfg.Compressed {
		parts := compress.Compress(buf[:0], id, m.cfg.SVD, m.cfg.NS)
		subs := make([]*ad.Node, len(parts))
		for i, p := range parts {
			subs[i] = m.embeds[i].Apply(t, int(p))
		}
		in = t.Concat(subs...)
	} else {
		in = m.embeds[0].Apply(t, int(id))
	}
	return m.phi.Apply(t, in)
}

// Apply records the full model on the tape and returns the output node
// (after the output activation). The empty set is rejected.
func (m *Model) Apply(t *ad.Tape, s sets.Set) *ad.Node {
	return m.applyWith(t, s, m.rho.Apply)
}

// ApplyLogit is Apply without the final activation, exposing the logit for
// numerically stable binary cross-entropy.
func (m *Model) ApplyLogit(t *ad.Tape, s sets.Set) *ad.Node {
	return m.applyWith(t, s, m.rho.ApplyLogit)
}

func (m *Model) applyWith(t *ad.Tape, s sets.Set, rho func(*ad.Tape, *ad.Node) *ad.Node) *ad.Node {
	return rho(t, m.pooledNode(t, s))
}

// pooledNode records the unfolded pool Σφ (mean or max per the config):
// ρ's input on the tape.
func (m *Model) pooledNode(t *ad.Tape, s sets.Set) *ad.Node {
	if len(s) == 0 {
		panic("deepsets: empty set")
	}
	var buf [8]uint32
	parts := make([]*ad.Node, len(s))
	for i, id := range s {
		parts[i] = m.elementNode(t, id, buf[:0])
	}
	switch m.cfg.Pool {
	case MeanPool:
		return t.MeanPool(parts)
	case MaxPool:
		return t.MaxPool(parts)
	default:
		return t.SumPool(parts)
	}
}

// tapeStep is Stepper.Step on the tape: record, seed, Backward into the
// parameters' own Grad. It returns the loss.
func tapeStep(m *Model, tp *ad.Tape, s sets.Set, target float64, loss Loss) float64 {
	tp.Reset()
	var out *ad.Node
	var l, g float64
	switch loss {
	case LossBCE:
		out = m.ApplyLogit(tp, s)
		l, g = nn.BCEWithLogits(out.Value[0], target)
	case LossMSE:
		out = m.Apply(tp, s)
		l, g = nn.MSELoss(out.Value[0], target)
	default:
		out = m.Apply(tp, s)
		l, g = nn.MAELoss(out.Value[0], target)
	}
	tp.Backward(out, []float64{g})
	return l
}
