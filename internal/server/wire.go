package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"setlearn/internal/sets"
)

// The /v1 wire codec. Request bodies are read once and scanned in a single
// pass by parseSets; answers are appended straight into the response bytes
// by appendField. Only error bodies and /v1/status go through encoding/json.

// maxBody bounds a request body in bytes. The largest valid batch, 4096
// queries of 12 ten-digit ids, is about 0.5 MB.
const maxBody = 4 << 20

// readBody returns the whole body of a POST request, read through
// http.MaxBytesReader: 405 for any other method, 413 past maxBody.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiError) {
	if r.Method != http.MethodPost {
		return nil, &apiError{
			status: http.StatusMethodNotAllowed,
			msg:    fmt.Sprintf("method %s not allowed; POST a JSON body", r.Method),
		}
	}
	size := int64(512)
	if 0 < r.ContentLength && r.ContentLength <= maxBody {
		size = r.ContentLength + 1 // one spare byte for the read that reports EOF
	}
	buf := make([]byte, 0, size)
	body := http.MaxBytesReader(w, r.Body, maxBody)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
				return nil, &apiError{
					status: http.StatusRequestEntityTooLarge,
					msg:    fmt.Sprintf("request body exceeds %d bytes", maxBody),
				}
			}
			return nil, badRequest("reading request body: %v", err)
		}
	}
}

// decodeRequest reads a request body and parses it with parseSets.
func decodeRequest(w http.ResponseWriter, r *http.Request, one, many string, allowEqual bool) ([]sets.Set, bool, bool, *apiError) {
	body, apiErr := readBody(w, r)
	if apiErr != nil {
		return nil, false, false, apiErr
	}
	return parseSets(body, one, many, allowEqual)
}

// parseSets decodes a /v1 request body: a JSON object carrying exactly one
// of one (a single id array) or many (an array of id arrays), plus "equal"
// (true, false or null) when allowEqual is set. It returns the canonical
// sets, whether the batch form was used, and the equal flag. Every error is
// a 400.
//
// The grammar and its semantics are those encoding/json gives the struct
// {One []uint32; Many [][]uint32; Equal bool} under DisallowUnknownFields:
// keys match case-insensitively (bytes.EqualFold), a repeated key's last
// value wins, null resets one or many to absent and an inner query to
// empty, and null leaves equal as it was. Three inputs that encoding/json
// accepts are refused: bytes other than whitespace after the object, null
// as an element id, and a key written with backslash escapes.
//
// Ids land in one arena sized up front to len(body)/2, since every id
// takes at least one digit and one delimiter. Each query is an arena span,
// canonicalized in place once the scan is done, so a request costs a
// constant number of allocations however many queries it carries.
func parseSets(body []byte, one, many string, allowEqual bool) ([]sets.Set, bool, bool, *apiError) {
	s := scanner{b: body}
	arena := make([]uint32, 0, len(body)/2)
	var (
		single             []uint32   // one's ids, an arena span
		spans              []sets.Set // many's queries, arena spans, at most maxBatch
		hasSingle, hasMany bool
		nMany              int // many's query count, which may exceed maxBatch
		equal              bool
	)
	if !s.eat('{') {
		return nil, false, false, s.syntax("'{'")
	}
	for more := !s.eat('}'); more; {
		key, err := s.key()
		if err != nil {
			return nil, false, false, err
		}
		if !s.eat(':') {
			return nil, false, false, s.syntax("':'")
		}
		switch {
		case bytes.EqualFold(key, []byte(one)):
			if hasSingle = !s.literal("null"); !hasSingle {
				break
			}
			start := len(arena)
			if arena, err = s.ids(arena); err != nil {
				return nil, false, false, err
			}
			single = arena[start:len(arena):len(arena)]
		case bytes.EqualFold(key, []byte(many)):
			if hasMany = !s.literal("null"); !hasMany {
				break
			}
			if !s.eat('[') {
				return nil, false, false, s.syntax("'[' or null")
			}
			if spans == nil {
				spans = make([]sets.Set, 0, min(bytes.Count(body, []byte{'['}), maxBatch))
			}
			spans, nMany = spans[:0], 0
			for inner := !s.eat(']'); inner; inner = s.next(']') {
				start := len(arena)
				if !s.literal("null") {
					if arena, err = s.ids(arena); err != nil {
						return nil, false, false, err
					}
				}
				if nMany < maxBatch {
					spans = append(spans, arena[start:len(arena):len(arena)])
				}
				nMany++
			}
			if s.err != nil {
				return nil, false, false, s.err
			}
		case allowEqual && bytes.EqualFold(key, []byte("equal")):
			switch {
			case s.literal("true"):
				equal = true
			case s.literal("false"):
				equal = false
			case !s.literal("null"):
				return nil, false, false, s.syntax("true, false or null")
			}
		default:
			return nil, false, false, badRequest("bad request body: unknown field %q", key)
		}
		more = s.next('}')
	}
	if s.err != nil {
		return nil, false, false, s.err
	}
	if s.skip(); s.pos < len(body) {
		return nil, false, false, badRequest("bad request body: offset %d: data after the closing brace", s.pos)
	}

	switch {
	case hasSingle && hasMany:
		return nil, false, false, badRequest("provide exactly one of %q or %q", one, many)
	case hasSingle:
		if len(single) == 0 {
			return nil, false, false, badRequest("%s must be non-empty", one)
		}
		return []sets.Set{sets.Canonicalize(single)}, false, equal, nil
	case hasMany:
		if nMany == 0 {
			return nil, false, false, badRequest("%s must be non-empty", many)
		}
		if nMany > maxBatch {
			return nil, false, false, badRequest("batch of %d exceeds limit %d", nMany, maxBatch)
		}
		for i, q := range spans {
			if len(q) == 0 {
				return nil, false, false, badRequest("%s %d must be non-empty", one, i)
			}
			spans[i] = sets.Canonicalize(q)
		}
		return spans, true, equal, nil
	default:
		return nil, false, false, badRequest("provide %q (single) or %q (batch)", one, many)
	}
}

// scanner walks a request body; pos is the offset of the next unread byte.
// next records its syntax error in err, so loops can stop on a false.
type scanner struct {
	b   []byte
	pos int
	err *apiError
}

// skip advances past JSON whitespace and returns the next byte, or 0 at the
// end of the body. A literal NUL byte also reads as 0; it matches nothing
// the grammar expects, so it is refused like the end of the body.
func (s *scanner) skip() byte {
	for ; s.pos < len(s.b); s.pos++ {
		switch c := s.b[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next non-whitespace byte.
func (s *scanner) eat(c byte) bool {
	if s.skip() != c {
		return false
	}
	s.pos++
	return true
}

// literal consumes word (null, true or false) if it comes next. What
// follows is checked by the caller's next delimiter.
func (s *scanner) literal(word string) bool {
	s.skip()
	if end := s.pos + len(word); end > len(s.b) || string(s.b[s.pos:end]) != word {
		return false
	}
	s.pos += len(word)
	return true
}

// next consumes the delimiter after a list element: true after a ',', false
// after close, and false with s.err set on anything else.
func (s *scanner) next(close byte) bool {
	switch s.skip() {
	case ',':
		s.pos++
		return true
	case close:
		s.pos++
		return false
	}
	s.err = s.syntax(fmt.Sprintf("',' or '%c'", close))
	return false
}

// syntax reports that the byte at pos is not what the grammar expects.
func (s *scanner) syntax(want string) *apiError {
	if s.pos >= len(s.b) {
		return badRequest("bad request body: unexpected end of body, want %s", want)
	}
	return badRequest("bad request body: offset %d: found %q, want %s", s.pos, s.b[s.pos], want)
}

// key reads an object key and returns its raw bytes. Keys written with
// escapes are refused: no key of the schema needs one.
func (s *scanner) key() ([]byte, *apiError) {
	if !s.eat('"') {
		return nil, s.syntax("a key")
	}
	for start := s.pos; s.pos < len(s.b); s.pos++ {
		switch c := s.b[s.pos]; {
		case c == '"':
			s.pos++
			return s.b[start : s.pos-1], nil
		case c == '\\':
			return nil, badRequest("bad request body: offset %d: escape in key", s.pos)
		case c < 0x20:
			return nil, s.syntax("a key character")
		}
	}
	return nil, s.syntax("'\"'")
}

// ids reads an id array, [] or [id, …], appending its ids to arena.
func (s *scanner) ids(arena []uint32) ([]uint32, *apiError) {
	if !s.eat('[') {
		return arena, s.syntax("'[' or null")
	}
	for more := !s.eat(']'); more; more = s.next(']') {
		id, err := s.id()
		if err != nil {
			return arena, err
		}
		arena = append(arena, id)
	}
	return arena, s.err
}

// id reads one element id: a plain integer literal from 0 to 4294967295,
// with no sign, fraction, exponent or leading zero.
func (s *scanner) id() (uint32, *apiError) {
	s.skip()
	start := s.pos
	var v uint64
	for ; s.pos < len(s.b) && '0' <= s.b[s.pos] && s.b[s.pos] <= '9'; s.pos++ {
		if v = v*10 + uint64(s.b[s.pos]-'0'); v > math.MaxUint32 {
			return 0, badRequest("bad request body: offset %d: element id exceeds %d", start, uint32(math.MaxUint32))
		}
	}
	switch {
	case s.pos == start:
		return 0, s.syntax("an element id")
	case s.b[start] == '0' && s.pos-start > 1:
		return 0, badRequest("bad request body: offset %d: element id with a leading zero", start)
	}
	return uint32(v), nil
}

// appendField appends "field":v for a single answer or "field":[v,…] for a
// batch, formatting each value with appendOne.
func appendField[T any](b []byte, field string, batch bool, vs []T, appendOne func([]byte, T) []byte) []byte {
	b = append(append(append(b, '"'), field...), `":`...)
	if !batch {
		return appendOne(b, vs[0])
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendOne(b, v)
	}
	return append(b, ']')
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendFloat formats a finite f exactly as encoding/json does: like 'f',
// but 'e' for magnitudes below 1e-6 or from 1e21, with a two-digit negative
// exponent trimmed (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// writeAnswer writes a 200 response with an encoded JSON body.
func writeAnswer(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}
