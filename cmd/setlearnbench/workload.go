package main

import (
	"math/rand"
	"sort"
	"strconv"

	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// pool is the fixed query set every workload draws from, with the exact
// answers the oracle checks against.
type pool struct {
	pos   []sets.Set // subsets of 1..maxSubset elements sampled from collection sets
	first []int      // Collection.FirstPosition of each pos query
	card  []int      // Collection.Cardinality of each pos query
	neg   []sets.Set // pairs or triples of collection elements never seen together
	maxID uint32
}

func newPool(c *sets.Collection, cfg config) *pool {
	p := &pool{
		pos:   dataset.QueryWorkload(c, cfg.poolSize, cfg.maxSubset, dataSeed+1),
		maxID: c.MaxID(),
	}
	for _, q := range p.pos {
		p.first = append(p.first, c.FirstPosition(q))
		p.card = append(p.card, c.Cardinality(q))
	}
	var universe []uint32
	for id := range c.ElementFrequencies() {
		universe = append(universe, id)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	rng := rand.New(rand.NewSource(dataSeed + 2))
	for len(p.neg) < cfg.poolSize {
		k := 2 + rng.Intn(cfg.maxSubset-1)
		ids := make([]uint32, k)
		for i := range ids {
			ids[i] = universe[rng.Intn(len(universe))]
		}
		if q := sets.New(ids...); len(q) == k && !c.Member(q) {
			p.neg = append(p.neg, q)
		}
	}
	return p
}

// kind is the endpoint a request goes to.
type kind int

const (
	kCard kind = iota
	kIndex
	kMember
	kInsert
)

var paths = [...]string{"/v1/card", "/v1/index", "/v1/member", "/v1/insert"}

// request is one pre-encoded HTTP request with what the oracle expects.
type request struct {
	kind kind
	body []byte
	n    int // queries or sets carried
	// want holds, per query, the exact first position (index) or 1 for a
	// positive that must answer true and 0 for an unchecked negative (member).
	want []int
	// set is the inserted set (insert) or the read-own-write query (a read
	// following this client's insert), which is checked after the run.
	set sets.Set
}

// traffic is each client's request list for the warm-up and the window, and
// for ingest the sets inserted before each sequence.
type traffic struct {
	warm, timed [][]request
	prefill     []sets.Set
}

const clients = 2

// newTraffic pre-generates and pre-encodes all traffic so the clients spend
// no time building requests: a cyclic read mix for the timed loops, or the
// fixed ingest sequence.
//
// Each client's cyclic list asks every pool query once per kind, in a seeded
// order, with card, index and member requests taking turns. So every seed
// does the same work per cycle in exactly the 1:1:1 mix, and only the order
// and the grouping into batches differ: a seed that drew more of the costly
// index requests would otherwise read as a slower program.
func newTraffic(cfg config, w workload, p *pool) *traffic {
	t := &traffic{}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(cfg.seed*clients + int64(c) + 3))
		var byKind [3][]request
		for k := range byKind {
			perm := rng.Perm(len(p.pos))
			for i := 0; i+w.batch <= len(perm); i += w.batch {
				byKind[k] = append(byKind[k], p.read(kind(k), perm[i:i+w.batch]))
			}
		}
		var reads []request
		for i := range byKind[0] {
			reads = append(reads, byKind[kCard][i], byKind[kIndex][i], byKind[kMember][i])
		}
		t.warm = append(t.warm, reads)
	}
	if !w.ingest {
		t.timed = t.warm
		return t
	}
	t.timed, t.prefill = ingestOps(cfg, p)
	return t
}

// ingestOps builds the fixed ingest sequence, which the window replays slices
// times: per client, 90% single reads (card:index:member = 1:1:1) and exactly
// 10% single inserts, where the read after an insert queries a subset of the
// set that client just inserted. It also returns the sets prefilled before
// each replay.
func ingestOps(cfg config, p *pool) ([][]request, []sets.Set) {
	perClient := int(cfg.seconds*float64(cfg.opsPerSec)) / slices / clients
	rng := rand.New(rand.NewSource(cfg.seed + 4))
	isInsert := make([][]bool, clients)
	for c := range isInsert {
		isInsert[c] = make([]bool, perClient)
		for _, i := range rng.Perm(perClient)[:perClient/10] {
			isInsert[c][i] = true
		}
	}
	// The inserted sets are fixed like the collection, whose distribution
	// they follow, so the delta and struct_mb repeat exactly; ids stay within
	// the trained vocabulary so the server accepts them.
	fresh := dataset.GenerateRW(cfg.prefill+clients*(perClient/10), int(p.maxID)+1, dataSeed+3).Sets
	prefill := fresh[:cfg.prefill]
	fresh = fresh[cfg.prefill:]
	ops := make([][]request, clients)
	for c := range ops {
		var own sets.Set
		reads := 0
		for _, ins := range isInsert[c] {
			if ins {
				s := fresh[0]
				fresh = fresh[1:]
				ops[c] = append(ops[c], request{kind: kInsert, body: encode("set", false, s), n: 1, set: s})
				own = randomSubset(rng, s, cfg.maxSubset)
				continue
			}
			k := kind(reads % 3) // reads take turns, for the exact 1:1:1 mix
			reads++
			if own != nil {
				ops[c] = append(ops[c], request{kind: k, body: encode("query", false, own), n: 1, set: own})
				own = nil
			} else {
				ops[c] = append(ops[c], p.read(k, []int{rng.Intn(len(p.pos))}))
			}
		}
	}
	return ops, prefill
}

// read builds one read request for pool slots js. Member requests ask the
// negative in odd slots and the positive in even ones, so they are half
// negatives.
func (p *pool) read(k kind, js []int) request {
	r := request{kind: k, n: len(js)}
	qs := make([][]uint32, len(js))
	for i, j := range js {
		if k == kMember && j%2 == 1 {
			qs[i] = p.neg[j]
			r.want = append(r.want, 0)
			continue
		}
		qs[i] = p.pos[j]
		switch k {
		case kIndex:
			r.want = append(r.want, p.first[j])
		case kMember:
			r.want = append(r.want, 1)
		}
	}
	if len(js) > 1 {
		r.body = encode("queries", true, qs...)
	} else {
		r.body = encode("query", false, qs...)
	}
	return r
}

func randomSubset(rng *rand.Rand, s sets.Set, maxSize int) sets.Set {
	k := 1 + rng.Intn(min(len(s), maxSize))
	perm := rng.Perm(len(s))
	ids := make([]uint32, k)
	for i := range ids {
		ids[i] = s[perm[i]]
	}
	return sets.New(ids...)
}

// encode writes {"<field>":[ids]} for one set, or {"<field>":[[ids],...]}
// for a batch.
func encode(field string, batch bool, qs ...[]uint32) []byte {
	b := []byte(`{"` + field + `":`)
	if batch {
		b = append(b, '[')
	}
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, id := range q {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(id), 10)
		}
		b = append(b, ']')
	}
	if batch {
		b = append(b, ']')
	}
	return append(b, '}')
}
