package wire

// The envelope codec. Request and Response encode by hand into the
// bytes json.Marshal gives them, and decode by a parser that accepts
// only that canonical form: fields in declaration order, no whitespace,
// omitempty fields absent when zero, integers without leading zeros.
// The codec handles plain strings, which json.Marshal writes verbatim:
// no quote, backslash, control byte, '<', '>' or '&', and valid UTF-8
// without U+2028 or U+2029. A raw field it handles is one plain string,
// which is what a sealed payload is. A frame with anything else (an
// error text that quotes, a raw JSON object) goes through encoding/json
// both ways, so every frame keeps json.Marshal's bytes and
// json.Unmarshal's meaning.

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// safe marks the ASCII bytes a plain string holds verbatim.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// plain reports whether json.Marshal writes s between its quotes as is.
func plain[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b >= utf8.RuneSelf {
			return plainRunes(string(s[i:]))
		} else if !safe[b] {
			return false
		}
	}
	return true
}

// plainRunes is plain past the first non-ASCII byte.
func plainRunes(s string) bool {
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		if r < utf8.RuneSelf && !safe[r] || r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += n
	}
	return true
}

// plainRaw reports whether raw is one plain JSON string literal.
func plainRaw(raw []byte) bool {
	n := len(raw)
	return n >= 2 && raw[0] == '"' && raw[n-1] == '"' && plain(raw[1:n-1])
}

// encoder appends one envelope; ok falls to false at the first field
// the codec does not write, and the caller then uses json.Marshal.
type encoder struct {
	b  []byte
	ok bool
}

func (e *encoder) int(key string, v int) {
	e.b = strconv.AppendInt(append(e.b, key...), int64(v), 10)
}

func (e *encoder) uint(key string, v uint64) {
	e.b = strconv.AppendUint(append(e.b, key...), v, 10)
}

func (e *encoder) str(key, s string) {
	if !plain(s) {
		e.ok = false
		return
	}
	e.b = append(e.b, key...)
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

func (e *encoder) raw(key string, raw []byte) {
	if !plainRaw(raw) {
		e.ok = false
		return
	}
	e.b = append(e.b, key...)
	e.b = append(e.b, raw...)
}

// appendRequest appends q's canonical encoding to b; false means q
// holds a field the codec does not write.
func appendRequest(b []byte, q *Request) ([]byte, bool) {
	e := encoder{b: b, ok: true}
	e.int(`{"v":`, q.V)
	if q.ID != 0 {
		e.uint(`,"id":`, q.ID)
	}
	e.str(`,"op":`, q.Op)
	if len(q.Scenarios) != 0 {
		e.raw(`,"scenarios":`, q.Scenarios)
	}
	if q.Target != 0 {
		e.uint(`,"target":`, q.Target)
	}
	if q.Key != "" {
		e.str(`,"key":`, q.Key)
	}
	if len(q.Value) != 0 {
		e.raw(`,"value":`, q.Value)
	}
	e.b = append(e.b, '}')
	return e.b, e.ok
}

// appendResponse is appendRequest for a Response.
func appendResponse(b []byte, r *Response) ([]byte, bool) {
	e := encoder{b: b, ok: true}
	e.uint(`{"id":`, r.ID)
	e.str(`,"kind":`, r.Kind)
	if r.Index != 0 {
		e.int(`,"index":`, r.Index)
	}
	if len(r.Outcome) != 0 {
		e.raw(`,"outcome":`, r.Outcome)
	}
	if r.Err != "" {
		e.str(`,"err":`, r.Err)
	}
	if r.Completed != 0 {
		e.int(`,"completed":`, r.Completed)
	}
	if r.Total != 0 {
		e.int(`,"total":`, r.Total)
	}
	if r.Found {
		e.b = append(e.b, `,"found":true`...)
	}
	if len(r.Value) != 0 {
		e.raw(`,"value":`, r.Value)
	}
	e.b = append(e.b, '}')
	return e.b, e.ok
}

// decoder walks one canonical envelope; ok falls to false at the first
// byte that is not the canonical form, and the caller then uses
// json.Unmarshal.
type decoder struct {
	b  []byte
	ok bool
}

// has consumes key if the envelope continues with it.
func (d *decoder) has(key string) bool {
	if d.ok && len(d.b) >= len(key) && string(d.b[:len(key)]) == key {
		d.b = d.b[len(key):]
		return true
	}
	return false
}

// want consumes key, which the canonical form always holds.
func (d *decoder) want(key string) {
	if !d.has(key) {
		d.ok = false
	}
}

// uint reads a canonical unsigned integer; zero fails when nonzero is
// set (an omitempty field is absent when zero).
func (d *decoder) uint(nonzero bool) uint64 {
	i, v := 0, uint64(0)
	for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		digit := uint64(d.b[i] - '0')
		if v > (1<<64-1-digit)/10 {
			d.ok = false
			return 0
		}
		v = v*10 + digit
	}
	if i == 0 || d.b[0] == '0' && (i > 1 || nonzero) {
		d.ok = false
		return 0
	}
	d.b = d.b[i:]
	return v
}

// int reads a canonical signed integer that fits an int.
func (d *decoder) int(nonzero bool) int {
	neg := len(d.b) > 0 && d.b[0] == '-'
	if neg {
		d.b = d.b[1:]
		nonzero = true // "-0" is not canonical
	}
	u := d.uint(nonzero)
	v := int64(u)
	if neg {
		v = -v
	}
	if u > 1<<63 || u == 1<<63 && !neg || int64(int(v)) != v {
		d.ok = false
		return 0
	}
	return int(v)
}

// strBytes reads a plain string literal and returns what is between
// its quotes; an empty one fails when nonempty is set.
func (d *decoder) strBytes(nonempty bool) []byte {
	if !d.ok || len(d.b) == 0 || d.b[0] != '"' {
		d.ok = false
		return nil
	}
	n := bytes.IndexByte(d.b[1:], '"')
	if n < 0 || !plain(d.b[1:1+n]) || nonempty && n == 0 {
		d.ok = false
		return nil
	}
	s := d.b[1 : 1+n]
	d.b = d.b[n+2:]
	return s
}

// vocabulary is the protocol's ops and kinds, which str returns without
// allocating.
var vocabulary = [...]string{OpPlan, OpCancel, OpLookup, OpRecord, OpLookupArtifact,
	OpRecordArtifact, OpFlush, OpStats, OpPing, KindResult, KindDone, KindReply, KindError}

// str reads a plain string.
func (d *decoder) str(nonempty bool) string {
	s := d.strBytes(nonempty)
	for _, w := range vocabulary {
		if string(s) == w {
			return w
		}
	}
	return string(s)
}

// raw reads a raw field, which the codec takes only as one plain
// string; the result shares the frame's bytes.
func (d *decoder) raw() []byte {
	start := d.b
	s := d.strBytes(false)
	if !d.ok {
		return nil
	}
	return start[: len(s)+2 : len(s)+2]
}

// done reports whether the envelope closed canonically.
func (d *decoder) done() bool {
	return d.has("}") && len(d.b) == 0
}

// parseRequest decodes a canonical Request envelope into q, setting
// only the fields it holds, as json.Unmarshal does; false means body is
// not in the codec's form and q is unchanged.
func parseRequest(body []byte, q *Request) bool {
	d := decoder{b: body, ok: true}
	v := *q
	d.want(`{"v":`)
	v.V = d.int(false)
	if d.has(`,"id":`) {
		v.ID = d.uint(true)
	}
	d.want(`,"op":`)
	v.Op = d.str(false)
	if d.has(`,"scenarios":`) {
		v.Scenarios = d.raw()
	}
	if d.has(`,"target":`) {
		v.Target = d.uint(true)
	}
	if d.has(`,"key":`) {
		v.Key = d.str(true)
	}
	if d.has(`,"value":`) {
		v.Value = d.raw()
	}
	if !d.done() {
		return false
	}
	*q = v
	return true
}

// parseResponse is parseRequest for a Response.
func parseResponse(body []byte, r *Response) bool {
	d := decoder{b: body, ok: true}
	v := *r
	d.want(`{"id":`)
	v.ID = d.uint(false)
	d.want(`,"kind":`)
	v.Kind = d.str(false)
	if d.has(`,"index":`) {
		v.Index = d.int(true)
	}
	if d.has(`,"outcome":`) {
		v.Outcome = d.raw()
	}
	if d.has(`,"err":`) {
		v.Err = d.str(true)
	}
	if d.has(`,"completed":`) {
		v.Completed = d.int(true)
	}
	if d.has(`,"total":`) {
		v.Total = d.int(true)
	}
	if d.has(`,"found":true`) {
		v.Found = true
	}
	if d.has(`,"value":`) {
		v.Value = d.raw()
	}
	if !d.done() {
		return false
	}
	*r = v
	return true
}
