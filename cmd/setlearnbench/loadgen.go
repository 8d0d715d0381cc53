package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"setlearn/internal/sets"
)

// loadGen is the closed-loop load generator: each client goroutine owns one
// keep-alive connection and sends its next request only after the previous
// reply is read and checked.
type loadGen struct {
	clients []*client
}

type client struct {
	addr string
	conn net.Conn // nil until dialled, and again after a transport error
	br   *bufio.Reader
	out  []byte // the request being written
	tr   *tracer
	buf  bytes.Buffer // the reply body

	samples           []sample // one per request in the timed window
	attempted, failed int      // every query and set sent, window or not

	inserted []insertRecord // ingest: every insert and the position it got
	ownReads []ownRead      // ingest: reads of a subset of this client's last insert
	lastPos  int            // position of this client's last insert; -1 if it failed
}

// sample is one timed request: its latency and how many queries or sets it
// answered.
type sample struct {
	latMS    float64
	answered int
}

type insertRecord struct {
	pos int
	set sets.Set
}

// ownRead is a read-own-write answer, checked after the run against the
// complete insert log so a concurrent insert by the other client is not
// reported as a false failure.
type ownRead struct {
	kind      kind
	q         sets.Set
	answer    float64 // position, estimate, or 1/0 for member
	writerPos int
}

func newLoadGen(addr string, tr *tracer) *loadGen {
	lg := &loadGen{}
	for i := 0; i < clients; i++ {
		lg.clients = append(lg.clients, &client{addr: addr, tr: tr})
	}
	return lg
}

func (lg *loadGen) close() {
	for _, c := range lg.clients {
		c.drop()
	}
}

// drive runs client i over reqs[i]: once through when once is set, else
// cyclically until the deadline. record marks the timed window. It returns
// the wall time until the last client finished.
func (lg *loadGen) drive(reqs [][]request, until time.Time, once, record bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range lg.clients {
		wg.Add(1)
		go func(c *client, rs []request) {
			defer wg.Done()
			for j := 0; ; j++ {
				if once && j == len(rs) || !once && !time.Now().Before(until) {
					return
				}
				c.send(&rs[j%len(rs)], record)
			}
		}(c, reqs[i])
	}
	wg.Wait()
	return time.Since(start)
}

func (lg *loadGen) samples() []sample {
	var all []sample
	for _, c := range lg.clients {
		all = append(all, c.samples...)
	}
	return all
}

func (lg *loadGen) attempted() (n int) {
	for _, c := range lg.clients {
		n += c.attempted
	}
	return n
}

func (lg *loadGen) failed() (n int) {
	for _, c := range lg.clients {
		n += c.failed
	}
	return n
}

const reqHeader = "X-Bench-Req"

// send posts one request, times it, and checks the reply. A transport error
// or non-200 status fails every query the request carried.
func (c *client) send(r *request, record bool) {
	var id int64
	if record && c.tr != nil {
		id = c.tr.newID()
	}
	if r.kind == kInsert {
		c.lastPos = -1
	}
	start := time.Now()
	status, err := c.post(paths[r.kind], r.body, id)
	end := time.Now()
	c.attempted += r.n
	bad := r.n
	if err == nil && status == http.StatusOK {
		bad = c.check(r, c.buf.Bytes())
	}
	c.failed += bad
	if record {
		c.samples = append(c.samples, sample{float64(end.Sub(start)) / float64(time.Millisecond), r.n - bad})
		if id != 0 {
			c.tr.record(lClient, start, end, id, 0, id, r.n)
		}
	}
}

// post sends one HTTP/1.1 POST on the client's keep-alive connection, with
// the request id header when id is not 0, and reads the reply body into
// c.buf. It writes and reads on the calling goroutine: net/http's client
// hands every request to a writer and a reader goroutine of the connection,
// and on a machine with few cores those hand-offs would be timed as latency
// and add scheduler noise.
func (c *client) post(path string, body []byte, id int64) (int, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	b := append(c.out[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if id != 0 {
		b = append(b, "\r\n"+reqHeader+": "...)
		b = strconv.AppendInt(b, id, 10)
	}
	b = append(append(b, "\r\n\r\n"...), body...)
	c.out = b
	if _, err := c.conn.Write(b); err != nil {
		c.drop()
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.drop()
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.drop()
	}
	return resp.StatusCode, err
}

// drop closes the client's connection; its next request dials a new one.
func (c *client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// reply decodes every endpoint's answer shape.
type reply struct {
	Estimate  *float64  `json:"estimate"`
	Estimates []float64 `json:"estimates"`
	Position  *int      `json:"position"`
	Positions []int     `json:"positions"`
	Member    *bool     `json:"member"`
	Members   []bool    `json:"members"`
}

// check compares a reply with the oracle and returns the number of wrong or
// missing answers. Estimates are learned, so only their range is checked.
func (c *client) check(r *request, body []byte) int {
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return r.n
	}
	var got []float64
	switch r.kind {
	case kCard:
		got = append(rep.Estimates, deref(rep.Estimate)...)
	case kIndex, kInsert:
		for _, p := range append(rep.Positions, deref(rep.Position)...) {
			got = append(got, float64(p))
		}
	case kMember:
		for _, m := range append(rep.Members, deref(rep.Member)...) {
			got = append(got, b2f(m))
		}
	}
	if len(got) != r.n {
		return r.n
	}
	if r.kind == kInsert {
		c.lastPos = int(got[0])
		c.inserted = append(c.inserted, insertRecord{pos: c.lastPos, set: r.set})
		return 0
	}
	if r.set != nil {
		if c.lastPos < 0 {
			return 1 // the insert this read depends on failed
		}
		c.ownReads = append(c.ownReads, ownRead{r.kind, r.set, got[0], c.lastPos})
		return 0
	}
	bad := 0
	for i, v := range got {
		switch {
		case r.kind == kCard && !(v >= 0 && !math.IsInf(v, 0)),
			r.kind == kIndex && int(v) != r.want[i],
			r.kind == kMember && r.want[i] == 1 && v != 1:
			bad++
		}
	}
	return bad
}

func deref[T any](p *T) []T {
	if p == nil {
		return nil
	}
	return []T{*p}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checkOwnWrites checks every read-own-write answer against the logical
// collection (the built sets, the prefilled ones and every acknowledged
// insert): the index must return a position no later than the writer's whose
// set contains the query, the filter must answer true, and the estimate must
// count the insert.
func checkOwnWrites(c *sets.Collection, prefilled []insertRecord, cs []*client) int {
	at := map[int]sets.Set{}
	for _, in := range prefilled {
		at[in.pos] = in.set
	}
	for _, cl := range cs {
		for _, in := range cl.inserted {
			at[in.pos] = in.set
		}
	}
	setAt := func(p int) (sets.Set, bool) {
		if p >= 0 && p < c.Len() {
			return c.At(p), true
		}
		s, ok := at[p]
		return s, ok
	}
	bad := 0
	for _, cl := range cs {
		for _, o := range cl.ownReads {
			switch o.kind {
			case kIndex:
				p := int(o.answer)
				if s, ok := setAt(p); !ok || p > o.writerPos || !s.ContainsAll(o.q) {
					bad++
				}
			case kMember:
				if o.answer != 1 {
					bad++
				}
			case kCard:
				if o.answer < 1 {
					bad++
				}
			}
		}
	}
	return bad
}
