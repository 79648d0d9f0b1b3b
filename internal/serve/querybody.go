package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"disjunct/internal/core"
)

// QueryBody is a flat query body as Scan read it. DB, Literal and
// Formula are views of the scanned body, or of the QueryBody's own
// buffer when the JSON string held escapes; the next Scan reuses that
// buffer, so copy what must outlive it.
type QueryBody struct {
	Semantics string
	DB        []byte
	Literal   []byte
	Formula   []byte
	Limits    LimitsJSON
	buf       []byte
}

// maxScratch is the largest buffer kept for reuse: a QueryBody drops a
// larger one at its next Scan, and a larger intake is not pooled.
const maxScratch = 64 << 10

// Scan decodes body in one pass when it is one flat query object:
// the keys "semantics", "db", "literal" and "formula" with string
// values and "limits" with an object of integers under the LimitsJSON
// keys, each spelled exactly and given at most once, with nothing but
// whitespace around the object. On any other input it returns false
// and the caller decodes the same bytes with encoding/json, which then
// gives its usual answer. That covers case-variant, unknown or escaped
// keys, duplicate keys, null, numbers with a fraction or exponent or
// outside int64, lone surrogate escapes, invalid UTF-8, control
// characters and trailing bytes: every body Scan accepts decodes to
// the same QueryRequest under encoding/json.
func (qb *QueryBody) Scan(body []byte) bool {
	buf := qb.buf[:0]
	if cap(buf) > maxScratch {
		buf = nil
	}
	*qb = QueryBody{}
	s := scanner{b: body, buf: buf}
	ok := qb.object(&s)
	qb.buf = s.buf
	return ok
}

// object reads the whole body into qb.
func (qb *QueryBody) object(s *scanner) bool {
	if !s.next('{') {
		return false
	}
	var sem []byte
	var seen uint8
	if !s.next('}') {
		for {
			key, ok := s.key()
			if !ok {
				return false
			}
			var bit uint8
			var dst *[]byte
			switch string(key) {
			case "semantics":
				bit, dst = 1, &sem
			case "db":
				bit, dst = 2, &qb.DB
			case "literal":
				bit, dst = 4, &qb.Literal
			case "formula":
				bit, dst = 8, &qb.Formula
			case "limits":
				bit = 16
			default:
				return false
			}
			if seen&bit != 0 {
				return false
			}
			seen |= bit
			if dst == nil {
				ok = s.limits(&qb.Limits)
			} else {
				*dst, ok = s.str()
			}
			if !ok {
				return false
			}
			if s.next('}') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	s.space()
	qb.Semantics = semanticsName(sem)
	return s.i == len(s.b)
}

// request copies the scanned fields out of the body and the buffer.
func (qb *QueryBody) request() QueryRequest {
	return QueryRequest{
		Semantics: qb.Semantics,
		DB:        string(qb.DB),
		Literal:   string(qb.Literal),
		Formula:   string(qb.Formula),
		Limits:    qb.Limits,
	}
}

// semanticsNames maps each registered semantics name to itself, so a
// scanned name costs no copy. Registration happens in init functions,
// before any request.
var semanticsNames = sync.OnceValue(func() map[string]string {
	m := map[string]string{}
	for _, name := range core.Names() {
		m[name] = name
	}
	return m
})

// semanticsName returns a registered name without copying it, and
// any other name as a copy.
func semanticsName(b []byte) string {
	if name, ok := semanticsNames()[string(b)]; ok {
		return name
	}
	return string(b)
}

// scanner walks one JSON text. str appends unescaped string contents
// to buf.
type scanner struct {
	b   []byte
	i   int
	buf []byte
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key reads an object key and its colon. Keys with escapes, control
// characters or non-ASCII bytes are left to encoding/json.
func (s *scanner) key() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			key := s.b[start:s.i]
			s.i++
			return key, s.next(':')
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// str reads a string value. Without escapes the result is a view of
// the body; with them it is a view of buf.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\':
			return s.unescape(start)
		case c < 0x20:
			return nil, false
		case c < utf8.RuneSelf:
			s.i++
		default:
			if !s.rune() {
				return nil, false
			}
		}
	}
	return nil, false
}

// rune steps over one multi-byte UTF-8 sequence, refusing an invalid
// one, which encoding/json would replace with U+FFFD.
func (s *scanner) rune() bool {
	r, size := utf8.DecodeRune(s.b[s.i:])
	if r == utf8.RuneError && size == 1 {
		return false
	}
	s.i += size
	return true
}

// unescape finishes a string whose first escape is at s.i, copying its
// contents from start into buf.
func (s *scanner) unescape(start int) ([]byte, bool) {
	mark := len(s.buf)
	s.buf = append(s.buf, s.b[start:s.i]...)
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.buf[mark:], true
		case c == '\\':
			if s.i+1 >= len(s.b) {
				return nil, false
			}
			e := s.b[s.i+1]
			s.i += 2
			switch e {
			case '"', '\\', '/':
				s.buf = append(s.buf, e)
			case 'b':
				s.buf = append(s.buf, '\b')
			case 'f':
				s.buf = append(s.buf, '\f')
			case 'n':
				s.buf = append(s.buf, '\n')
			case 'r':
				s.buf = append(s.buf, '\r')
			case 't':
				s.buf = append(s.buf, '\t')
			case 'u':
				r, ok := s.hex4()
				if !ok {
					return nil, false
				}
				if utf16.IsSurrogate(r) {
					// Only a high surrogate followed by an escaped low
					// one makes a rune; encoding/json turns the rest
					// into U+FFFD.
					if r >= 0xdc00 || s.i+1 >= len(s.b) || s.b[s.i] != '\\' || s.b[s.i+1] != 'u' {
						return nil, false
					}
					s.i += 2
					lo, ok := s.hex4()
					if !ok {
						return nil, false
					}
					if r = utf16.DecodeRune(r, lo); r == utf8.RuneError {
						return nil, false
					}
				}
				s.buf = utf8.AppendRune(s.buf, r)
			default:
				return nil, false
			}
		case c < 0x20:
			return nil, false
		case c < utf8.RuneSelf:
			s.buf = append(s.buf, c)
			s.i++
		default:
			at := s.i
			if !s.rune() {
				return nil, false
			}
			s.buf = append(s.buf, s.b[at:s.i]...)
		}
	}
	return nil, false
}

// hex4 reads the four hex digits of a \u escape.
func (s *scanner) hex4() (rune, bool) {
	if s.i+4 > len(s.b) {
		return 0, false
	}
	var r rune
	for _, c := range s.b[s.i : s.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	s.i += 4
	return r, true
}

// limits reads the limits object.
func (s *scanner) limits(l *LimitsJSON) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := s.key()
		if !ok {
			return false
		}
		var bit uint8
		var dst *int64
		switch string(key) {
		case "deadline_ms":
			bit, dst = 1, &l.DeadlineMS
		case "conflicts":
			bit, dst = 2, &l.Conflicts
		case "propagations":
			bit, dst = 4, &l.Propagations
		case "np_calls":
			bit, dst = 8, &l.NPCalls
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		if *dst, ok = s.int64(); !ok {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// int64 reads a JSON integer in int64 range: no fraction, no
// exponent, no leading zero.
func (s *scanner) int64() (int64, bool) {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var u uint64
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		d := uint64(s.b[s.i] - '0')
		if u > (1<<63-d)/10 {
			return 0, false
		}
		u = u*10 + d
		s.i++
	}
	switch {
	case s.i == start, s.b[start] == '0' && s.i > start+1:
		return 0, false
	case s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E'):
		return 0, false
	case u == 1<<63 && !neg:
		return 0, false
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// intake is the reusable memory of one query request: the body bytes
// and the scanner's buffer.
type intake struct {
	body bytes.Buffer
	qb   QueryBody
}

var intakes = sync.Pool{New: func() any { return new(intake) }}

// readQueryRequest reads a query body whole and scans it once. Any
// body Scan does not take, and any body whose read failed (its cap
// included), goes to json.Decoder over the same bytes, followed on a
// failed read by the rest of r: the decoder then accepts a body, or
// fails it with the error text, exactly as when it read r itself.
func readQueryRequest(r io.Reader, req *QueryRequest) error {
	in := intakes.Get().(*intake)
	defer func() {
		if in.body.Cap() <= maxScratch {
			in.body.Reset()
			intakes.Put(in)
		}
	}()
	if _, err := in.body.ReadFrom(r); err != nil {
		return json.NewDecoder(io.MultiReader(&in.body, r)).Decode(req)
	}
	if in.qb.Scan(in.body.Bytes()) {
		*req = in.qb.request()
		return nil
	}
	return json.NewDecoder(&in.body).Decode(req)
}
