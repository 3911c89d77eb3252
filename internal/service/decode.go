package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// DecodeBody strictly decodes a JSON request body into v (shared with the
// node-mode control API in internal/nodesvc). It reads the body once,
// limited to limit bytes (413 beyond it), and rejects unknown fields and
// anything but whitespace after the value (400). Errors carry an HTTP
// status via APIErrorCode.
//
// An *IngestRequest body in the canonical explicit-batch shape
// {"batches":[[{"w":<number>,"id":<number>},...],...]} is decoded by a
// single-pass scanner (scanIngest) with the same result encoding/json
// gives. Every other body, and every target type, goes through
// encoding/json, which therefore owns all error statuses and messages.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{
				code: http.StatusRequestEntityTooLarge,
				msg:  fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			}
		}
		return badRequestf("invalid request body: %v", err)
	}
	data := buf.Bytes()
	if req, ok := v.(*IngestRequest); ok {
		if batches, ok := scanIngest(data); ok {
			req.Batches = batches
			return nil
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("invalid request body: %v", err)
	}
	if rest := data[dec.InputOffset():]; skipSpace(rest, 0) != len(rest) {
		return badRequestf("invalid request body: trailing data after the JSON value")
	}
	return nil
}

// maxPooledBody caps the read buffers kept for reuse: one rare huge body
// must not pin its memory in the pool.
const maxPooledBody = 4 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// minItemLen is the length of the shortest item the scanner accepts,
// {"w":0,"id":0}; it bounds the item count a body of a given size can hold.
const minItemLen = len(`{"w":0,"id":0}`)

// scanIngest decodes the canonical explicit-batch body
//
//	{"batches":[[{"w":<number>,"id":<number>},...],...]}
//
// with JSON whitespace anywhere and the two item keys in either order.
// Numbers follow the JSON grammar exactly; w is converted by
// strconv.ParseFloat(s, 64), the call encoding/json makes, so the bits
// match, and id must be a base-10 integer that fits a uint64. Nothing but
// whitespace may follow the object.
//
// It reports ok = false, and the caller falls back to encoding/json, for
// every other input: other or repeated keys, escaped or case-variant keys,
// missing fields, null, empty lists, negative or fractional IDs,
// out-of-range numbers and malformed JSON.
func scanIngest(data []byte) (batches [][]WireItem, ok bool) {
	s := scanner{data: data}
	if !s.byte('{') || string(s.key()) != "batches" || !s.byte('[') {
		return nil, false
	}
	// Every item opens with '{' (as does the body) and takes at least
	// minItemLen bytes, so this sizes the flat item slice for a canonical
	// body with one spare slot and never beyond what the body could hold.
	items := make([]WireItem, 0, min(bytes.Count(data, []byte{'{'}), len(data)/minItemLen))
	for {
		if !s.byte('[') {
			return nil, false
		}
		start := len(items)
		for {
			it, ok := s.item()
			if !ok {
				return nil, false
			}
			items = append(items, it)
			if !s.byte(',') {
				break
			}
		}
		if !s.byte(']') {
			return nil, false
		}
		batches = append(batches, items[start:len(items):len(items)])
		if !s.byte(',') {
			break
		}
	}
	if !s.byte(']') || !s.byte('}') {
		return nil, false
	}
	return batches, skipSpace(data, s.pos) == len(data)
}

// scanner is scanIngest's cursor over the body.
type scanner struct {
	data []byte
	pos  int
}

// byte skips whitespace and consumes c if it comes next.
func (s *scanner) byte(c byte) bool {
	s.pos = skipSpace(s.data, s.pos)
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// key consumes an object key and its colon and returns the key's raw bytes,
// or nil if none comes next. Escapes are not decoded, so an escaped key
// never equals a field name and the body falls back.
func (s *scanner) key() []byte {
	if !s.byte('"') {
		return nil
	}
	n := bytes.IndexByte(s.data[s.pos:], '"')
	if n < 0 {
		return nil
	}
	k := s.data[s.pos : s.pos+n]
	s.pos += n + 1
	if !s.byte(':') {
		return nil
	}
	return k
}

// item consumes one {"w":...,"id":...} object, keys in either order.
func (s *scanner) item() (it WireItem, ok bool) {
	if !s.byte('{') {
		return it, false
	}
	var haveW, haveID bool
	for i := 0; i < 2; i++ {
		if i == 1 && !s.byte(',') {
			return it, false
		}
		switch k := s.key(); {
		case string(k) == "w" && !haveW:
			haveW = true
			num := s.number()
			if num == nil {
				return it, false
			}
			var err error
			if it.W, err = strconv.ParseFloat(string(num), 64); err != nil {
				return it, false
			}
		case string(k) == "id" && !haveID:
			haveID = true
			if it.ID, ok = parseID(s.number()); !ok {
				return it, false
			}
		default:
			return it, false
		}
	}
	return it, s.byte('}')
}

// number consumes a JSON number and returns its bytes, or nil if the
// input does not follow the grammar -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
// What follows the number is the caller's to check.
func (s *scanner) number() []byte {
	d := s.data
	start := skipSpace(d, s.pos)
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i+1)
	default:
		return nil
	}
	if i < len(d) && d[i] == '.' {
		j := skipDigits(d, i+1)
		if j == i+1 {
			return nil
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := skipDigits(d, i)
		if j == i {
			return nil
		}
		i = j
	}
	s.pos = i
	return d[start:i]
}

// parseID converts a JSON number to a uint64 as strconv.ParseUint(s, 10,
// 64) would: digits only, no sign, fraction or exponent, no overflow.
func parseID(num []byte) (uint64, bool) {
	if len(num) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range num {
		d := uint64(c - '0')
		if d > 9 || v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func skipDigits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// skipSpace returns the index of the first non-whitespace byte of d at or
// after i, using JSON's definition of whitespace.
func skipSpace(d []byte, i int) int {
	for i < len(d) {
		switch d[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
