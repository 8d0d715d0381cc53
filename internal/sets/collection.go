package sets

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Collection is the paper's S = [X₁, X₂, …, X_N]: an ordered list of sets in
// arbitrary (insertion) order. Duplicate sets may appear; positions are
// 0-based.
type Collection struct {
	Sets []Set
}

// NewCollection wraps ss as a collection.
func NewCollection(ss []Set) *Collection { return &Collection{Sets: ss} }

// Len returns the number of sets.
func (c *Collection) Len() int { return len(c.Sets) }

// At returns the set at position i.
func (c *Collection) At(i int) Set { return c.Sets[i] }

// Append adds a set at the end and returns its position.
func (c *Collection) Append(s Set) int {
	c.Sets = append(c.Sets, s)
	return len(c.Sets) - 1
}

// FirstPosition returns the first position i with q ⊆ S[i], or -1 — the
// reference (linear scan) semantics of the indexing task (§1.1).
func (c *Collection) FirstPosition(q Set) int {
	for i, s := range c.Sets {
		if s.ContainsAll(q) {
			return i
		}
	}
	return -1
}

// FirstPositionInRange scans positions [lo, hi] only — the reference
// semantics of the hybrid index's bounded local search (Algorithm 2),
// which the index's signature-filtered scan must reproduce.
func (c *Collection) FirstPositionInRange(q Set, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi >= len(c.Sets) {
		hi = len(c.Sets) - 1
	}
	for i := lo; i <= hi; i++ {
		if c.Sets[i].ContainsAll(q) {
			return i
		}
	}
	return -1
}

// Cardinality returns |{i : q ⊆ S[i]}| by linear scan — the reference
// semantics of the cardinality task (§1.1).
func (c *Collection) Cardinality(q Set) int {
	n := 0
	for _, s := range c.Sets {
		if s.ContainsAll(q) {
			n++
		}
	}
	return n
}

// Member reports whether q is a subset of any set in the collection — the
// membership task (§1.1).
func (c *Collection) Member(q Set) bool { return c.FirstPosition(q) >= 0 }

// MaxID returns the largest element id in the collection, or 0 when empty.
func (c *Collection) MaxID() uint32 {
	var m uint32
	for _, s := range c.Sets {
		if len(s) > 0 && s[len(s)-1] > m {
			m = s[len(s)-1]
		}
	}
	return m
}

// Stats summarizes a collection as in the paper's Table 2.
type Stats struct {
	N          int // number of sets
	UniqueElem int // number of distinct element ids
	MaxCard    int // largest cardinality of any single element
	MinSetSize int
	MaxSetSize int
}

// Stats computes dataset statistics in one pass.
func (c *Collection) Stats() Stats {
	st := Stats{N: len(c.Sets)}
	if st.N == 0 {
		return st
	}
	counts := make(map[uint32]int)
	st.MinSetSize = len(c.Sets[0])
	for _, s := range c.Sets {
		if len(s) < st.MinSetSize {
			st.MinSetSize = len(s)
		}
		if len(s) > st.MaxSetSize {
			st.MaxSetSize = len(s)
		}
		for _, e := range s {
			counts[e]++
		}
	}
	st.UniqueElem = len(counts)
	for _, n := range counts {
		if n > st.MaxCard {
			st.MaxCard = n
		}
	}
	return st
}

// ElementFrequencies returns the per-element occurrence counts across the
// collection (how many sets each element appears in).
func (c *Collection) ElementFrequencies() map[uint32]int {
	counts := make(map[uint32]int)
	for _, s := range c.Sets {
		for _, e := range s {
			counts[e]++
		}
	}
	return counts
}

// Write serializes the collection as one line per set with space-separated
// decimal ids, the format consumed by cmd tools.
func (c *Collection) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range c.Sets {
		for i, e := range s {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return fmt.Errorf("sets: write collection: %w", err)
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(e), 10)); err != nil {
				return fmt.Errorf("sets: write collection: %w", err)
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("sets: write collection: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCollection parses the format produced by Write. Blank lines and lines
// starting with '#' are skipped; elements within a line may appear in any
// order and are canonicalized.
func ReadCollection(r io.Reader) (*Collection, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	c := &Collection{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		ids := make([]uint32, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("sets: line %d: bad element %q: %w", lineNo, f, err)
			}
			ids = append(ids, uint32(v))
		}
		c.Sets = append(c.Sets, New(ids...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sets: read collection: %w", err)
	}
	return c, nil
}
