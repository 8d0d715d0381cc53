package hybrid

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"setlearn/internal/blockio"
	"setlearn/internal/bptree"
	"setlearn/internal/deepsets"
	"setlearn/internal/sets"
	"setlearn/internal/train"
)

// Serialized form of the hybrid structures. The collection an Index serves
// is not persisted — it is the data being indexed; the caller supplies it
// again at load time (as a database would reopen its heap file).

type indexHeader struct {
	Scaler   train.Scaler
	RangeLen int
	Errors   []int
	MaxErr   int
	AuxKeys  []uint64
	AuxVals  []uint32
	AuxOrder int
	// Collection fingerprint: the index is only valid over the collection
	// it was built on, so Load verifies these.
	NumSets   int
	FirstHash uint64
	LastHash  uint64
}

// Save persists the index: model weights, scaler, error bounds, and the
// auxiliary structure's entries.
func (idx *Index) Save(w io.Writer) error {
	if err := blockio.Write(w, idx.model.Save); err != nil {
		return fmt.Errorf("hybrid: save index model: %w", err)
	}
	hdr := indexHeader{
		Scaler:    idx.scaler,
		RangeLen:  idx.rangeLen,
		Errors:    idx.errors,
		MaxErr:    idx.maxErr,
		AuxOrder:  bptree.DefaultOrder,
		NumSets:   idx.collection.Len(),
		FirstHash: idx.collection.At(0).Hash(),
		LastHash:  idx.collection.At(idx.collection.Len() - 1).Hash(),
	}
	idx.auxMu.RLock()
	idx.aux.Ascend(func(k uint64, v uint32) bool {
		hdr.AuxKeys = append(hdr.AuxKeys, k)
		hdr.AuxVals = append(hdr.AuxVals, v)
		return true
	})
	idx.auxMu.RUnlock()
	if err := blockio.Write(w, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(hdr)
	}); err != nil {
		return fmt.Errorf("hybrid: save index header: %w", err)
	}
	return nil
}

// LoadIndex restores an index saved by Save over the same collection.
func LoadIndex(r io.Reader, c *sets.Collection) (*Index, error) {
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("hybrid: load index requires the indexed collection")
	}
	block, err := blockio.Read(r)
	if err != nil {
		return nil, fmt.Errorf("hybrid: load index model: %w", err)
	}
	m, err := deepsets.Load(block)
	if err != nil {
		return nil, fmt.Errorf("hybrid: load index model: %w", err)
	}
	var hdr indexHeader
	hBlock, err := blockio.Read(r)
	if err != nil {
		return nil, fmt.Errorf("hybrid: load index header: %w", err)
	}
	if err := gob.NewDecoder(hBlock).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("hybrid: load index header: %w", err)
	}
	if len(hdr.AuxKeys) != len(hdr.AuxVals) {
		return nil, fmt.Errorf("hybrid: corrupt aux entries (%d keys, %d values)",
			len(hdr.AuxKeys), len(hdr.AuxVals))
	}
	if hdr.RangeLen <= 0 || len(hdr.Errors) == 0 {
		return nil, fmt.Errorf("hybrid: corrupt index header")
	}
	if hdr.AuxOrder < 3 || hdr.AuxOrder > 1<<16 {
		return nil, fmt.Errorf("hybrid: corrupt aux order %d", hdr.AuxOrder)
	}
	if hdr.NumSets <= 0 {
		return nil, fmt.Errorf("hybrid: corrupt set count %d", hdr.NumSets)
	}
	for _, v := range hdr.AuxVals {
		// Positions index the collection at query time; bound them now so a
		// corrupt stream cannot plant an out-of-range panic in Lookup.
		if int(v) >= hdr.NumSets {
			return nil, fmt.Errorf("hybrid: aux position %d beyond collection of %d", v, hdr.NumSets)
		}
	}
	// Updates may have appended sets since Save, so the collection may be
	// longer than at save time — but its saved prefix must match.
	if c.Len() < hdr.NumSets ||
		c.At(0).Hash() != hdr.FirstHash ||
		c.At(hdr.NumSets-1).Hash() != hdr.LastHash {
		return nil, fmt.Errorf("hybrid: collection does not match the one the index was built on")
	}
	idx := &Index{
		collection: c,
		sigs:       sigColumn(c),
		model:      m,
		scaler:     hdr.Scaler,
		pred:       m.NewPredictorPool(),
		aux:        bptree.New(hdr.AuxOrder),
		rangeLen:   hdr.RangeLen,
		errors:     hdr.Errors,
		maxErr:     hdr.MaxErr,
	}
	for i, k := range hdr.AuxKeys {
		idx.aux.Insert(k, hdr.AuxVals[i])
	}
	return idx, nil
}

type estimatorHeader struct {
	Scaler  train.Scaler
	AuxKeys []string
	AuxVals []float64
}

// Save persists the estimator: model weights, scaler, and the auxiliary
// outlier map.
func (e *Estimator) Save(w io.Writer) error {
	if err := blockio.Write(w, e.model.Save); err != nil {
		return fmt.Errorf("hybrid: save estimator model: %w", err)
	}
	hdr := estimatorHeader{Scaler: e.scaler}
	e.auxMu.RLock()
	for k := range e.aux {
		hdr.AuxKeys = append(hdr.AuxKeys, k)
	}
	// Sorted keys make the serialized form deterministic (map iteration
	// order is not), so save → load → save round-trips byte-identically.
	sort.Strings(hdr.AuxKeys)
	hdr.AuxVals = make([]float64, len(hdr.AuxKeys))
	for i, k := range hdr.AuxKeys {
		hdr.AuxVals[i] = e.aux[k]
	}
	e.auxMu.RUnlock()
	if err := blockio.Write(w, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(hdr)
	}); err != nil {
		return fmt.Errorf("hybrid: save estimator header: %w", err)
	}
	return nil
}

// LoadEstimator restores an estimator saved by Save.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	block, err := blockio.Read(r)
	if err != nil {
		return nil, fmt.Errorf("hybrid: load estimator model: %w", err)
	}
	m, err := deepsets.Load(block)
	if err != nil {
		return nil, fmt.Errorf("hybrid: load estimator model: %w", err)
	}
	var hdr estimatorHeader
	hBlock, err := blockio.Read(r)
	if err != nil {
		return nil, fmt.Errorf("hybrid: load estimator header: %w", err)
	}
	if err := gob.NewDecoder(hBlock).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("hybrid: load estimator header: %w", err)
	}
	if len(hdr.AuxKeys) != len(hdr.AuxVals) {
		return nil, fmt.Errorf("hybrid: corrupt aux entries")
	}
	e := &Estimator{
		model:  m,
		scaler: hdr.Scaler,
		pred:   m.NewPredictorPool(),
		aux:    make(map[string]float64, len(hdr.AuxKeys)),
	}
	for i, k := range hdr.AuxKeys {
		e.aux[k] = hdr.AuxVals[i]
	}
	return e, nil
}
