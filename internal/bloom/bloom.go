// Package bloom implements a classic Bloom filter with double hashing. It is
// the traditional competitor for the membership task (§8.4) and the backup
// filter that removes false negatives from the learned Bloom filter (§4.3).
package bloom

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Filter is a standard m-bit, k-hash Bloom filter. Membership answers are
// one-sided: Contains never returns false for an added key.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
	n    uint64 // number of added keys (bookkeeping only)
}

// New creates a filter with m bits and k hash functions. m is rounded up to
// a multiple of 64.
func New(m uint64, k int) *Filter {
	if m == 0 || k <= 0 {
		panic(fmt.Sprintf("bloom: invalid parameters m=%d k=%d", m, k))
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// NewWithEstimates creates a filter sized for n keys at the target false
// positive rate p, using the standard optima m = −n·ln(p)/ln(2)² and
// k = (m/n)·ln(2).
func NewWithEstimates(n uint64, p float64) *Filter {
	if n == 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("bloom: fp rate must be in (0,1), got %v", p))
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return New(m, k)
}

// hashPair derives two independent 64-bit hashes from key (FNV-1a and a
// second pass with a different seed); the k probe positions are the standard
// Kirsch–Mitzenmacher combination h1 + i·h2.
func hashPair(key uint64) (uint64, uint64) {
	const prime64 = 1099511628211
	h1 := uint64(14695981039346656037)
	h2 := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 8; i++ {
		b := uint64(byte(key >> (8 * i)))
		h1 = (h1 ^ b) * prime64
		h2 = (h2 ^ b) * 0xff51afd7ed558ccd
		h2 ^= h2 >> 33
	}
	if h2 == 0 {
		h2 = 1
	}
	return h1, h2
}

// Add inserts a 64-bit key (typically sets.Set.Hash()).
func (f *Filter) Add(key uint64) {
	h1, h2 := hashPair(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.n++
}

// Contains reports whether key may have been added. False positives are
// possible; false negatives are not.
func (f *Filter) Contains(key uint64) bool {
	h1, h2 := hashPair(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// Count returns the number of Add calls.
func (f *Filter) Count() uint64 { return f.n }

// SizeBytes returns the memory footprint of the bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// OptimalSizeBytes returns the bit-array size in bytes of an optimally sized
// filter for n keys at false positive rate p — the analytic curve of the
// paper's Figure 3.
func OptimalSizeBytes(n uint64, p float64) int {
	if n == 0 {
		return 0
	}
	m := math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2))
	return int(math.Ceil(m / 8))
}

const filterMagic = uint32(0x424c4d31) // "BLM1"

// Save serializes the filter.
func (f *Filter) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{uint64(filterMagic), f.m, uint64(f.k), f.n}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("bloom: save header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, f.bits); err != nil {
		return fmt.Errorf("bloom: save bits: %w", err)
	}
	return bw.Flush()
}

// Load deserializes a filter saved by Save.
func Load(r io.Reader) (*Filter, error) {
	br := bufio.NewReader(r)
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("bloom: load header: %w", err)
		}
	}
	if uint32(hdr[0]) != filterMagic {
		return nil, fmt.Errorf("bloom: bad magic %#x", hdr[0])
	}
	// Validate before allocating: a corrupt header must not drive a huge
	// allocation or an unbounded probe loop.
	if hdr[1] == 0 || hdr[1]%64 != 0 {
		return nil, fmt.Errorf("bloom: corrupt bit count %d", hdr[1])
	}
	if hdr[2] < 1 || hdr[2] > 64 {
		return nil, fmt.Errorf("bloom: corrupt hash count %d", hdr[2])
	}
	f := &Filter{m: hdr[1], k: int(hdr[2]), n: hdr[3]}
	// Read the bit array in bounded chunks so a corrupt length cannot
	// allocate far beyond what the stream actually holds.
	words := hdr[1] / 64
	const chunk = 1 << 16
	f.bits = make([]uint64, 0, min(words, chunk))
	for uint64(len(f.bits)) < words {
		n := words - uint64(len(f.bits))
		if n > chunk {
			n = chunk
		}
		part := make([]uint64, n)
		if err := binary.Read(br, binary.LittleEndian, part); err != nil {
			return nil, fmt.Errorf("bloom: load bits: %w", err)
		}
		f.bits = append(f.bits, part...)
	}
	return f, nil
}
