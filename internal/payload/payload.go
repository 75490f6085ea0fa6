// Package payload is the binary layout of the stored payloads the
// simulator decodes on its warm paths: cached sweep winners
// (internal/experiment) and warmup checkpoints (internal/sim).
//
// A payload is a flat sequence of fields, each written by one Writer
// method and read back by the Reader method of the same name, in the
// same order: fixed-width little-endian U64 and F64 (IEEE-754 bits),
// Uvarint, zig-zag Int, Bool, and length-prefixed Str, Bytes, Uvarints
// and Ints. A slice's length prefix is 0 for nil and n+1 for n
// elements, so nil and empty slices round-trip as themselves. The
// layout is canonical: a Reader rejects overlong varints, booleans
// other than 0 and 1, and trailing bytes, so a payload that decodes
// re-encodes to the same bytes.
//
// The owners of stored structs write their layouts by hand, and version
// them in the store keys those payloads live under (see CONTRIBUTING).
//
// runner.Store requires payloads to be valid JSON, so Seal wraps the
// binary bytes in a JSON string literal holding their standard base64
// encoding, and Open unwraps it.
package payload

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Writer appends fields to a growing buffer. The zero value is ready
// to use.
type Writer struct{ buf []byte }

// U64 writes v as 8 little-endian bytes.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// F64 writes v's IEEE-754 bits as a U64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Uvarint writes v as an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int writes v as a zig-zag signed varint.
func (w *Writer) Int(v int) { w.buf = binary.AppendVarint(w.buf, int64(v)) }

// Bool writes v as one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// Len writes a slice length prefix: 0 for a nil slice, n+1 for n
// elements. Each element the caller then writes must take at least
// one byte, which is what lets Reader.Len bound the prefix.
func (w *Writer) Len(n int, isNil bool) {
	if isNil {
		w.Uvarint(0)
		return
	}
	w.Uvarint(uint64(n) + 1)
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes writes a length-prefixed byte slice, keeping nil apart from
// empty.
func (w *Writer) Bytes(b []byte) {
	w.Len(len(b), b == nil)
	w.buf = append(w.buf, b...)
}

// Uvarints writes a length-prefixed slice of unsigned varints.
func (w *Writer) Uvarints(s []uint64) {
	w.Len(len(s), s == nil)
	for _, v := range s {
		w.Uvarint(v)
	}
}

// Ints writes a length-prefixed slice of zig-zag varints.
func (w *Writer) Ints(s []int) {
	w.Len(len(s), s == nil)
	for _, v := range s {
		w.Int(v)
	}
}

// Seal returns the bytes written so far as a store payload: a JSON
// string literal holding their standard base64 encoding.
func (w *Writer) Seal() []byte {
	out := make([]byte, base64.StdEncoding.EncodedLen(len(w.buf))+2)
	out[0] = '"'
	base64.StdEncoding.Encode(out[1:], w.buf)
	out[len(out)-1] = '"'
	return out
}

// b64 decodes sealed payloads. Strict rejects non-zero padding bits;
// Open rejects the newlines base64 skips by checking the encoded
// length, so exactly one sealed form decodes to each binary payload.
var b64 = base64.StdEncoding.Strict()

// Open unwraps a sealed payload into a Reader. A payload that is not a
// sealed one (a JSON value of an older format, say) gives a Reader
// whose first read fails.
func Open(sealed []byte) Reader {
	if len(sealed) < 2 || sealed[0] != '"' || sealed[len(sealed)-1] != '"' {
		return Reader{err: errors.New("payload: not a sealed payload")}
	}
	src := sealed[1 : len(sealed)-1]
	bin := make([]byte, b64.DecodedLen(len(src)))
	n, err := b64.Decode(bin, src)
	if err != nil {
		return Reader{err: fmt.Errorf("payload: %w", err)}
	}
	if b64.EncodedLen(n) != len(src) {
		return Reader{err: errors.New("payload: non-canonical base64")}
	}
	return Reader{buf: bin[:n]}
}

// Reader reads fields back in the order a Writer wrote them. Its error
// is sticky: after the first malformed field every read returns the
// zero value, so a decoder reads its whole layout and checks Done once.
type Reader struct {
	buf []byte
	err error
}

// Done reports the first decoding error, or an error if bytes remain
// unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) > 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Fail records a layout error the caller found in a field it read (a
// value past a bound its layout sets), with the same sticky effect as a
// malformed field.
func (r *Reader) Fail(format string, args ...any) { r.fail(format, args...) }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("payload: "+format, args...)
	}
	r.buf = nil
}

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() uint64 {
	if len(r.buf) < 8 {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads an unsigned varint in its shortest encoding.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated or overflowing varint")
		return 0
	}
	if n > 1 && r.buf[n-1] == 0 {
		r.fail("overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a zig-zag signed varint that fits an int.
func (r *Reader) Int() int {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		r.fail("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads one byte, 0 or 1.
func (r *Reader) Bool() bool {
	if len(r.buf) == 0 {
		r.fail("truncated bool")
		return false
	}
	b := r.buf[0]
	if b > 1 {
		r.fail("bool byte %d", b)
		return false
	}
	r.buf = r.buf[1:]
	return b == 1
}

// Len reads a slice length prefix. Every element takes at least one
// byte, so a length beyond the bytes that remain fails here, before
// the caller allocates for it.
func (r *Reader) Len() (n int, isNil bool) { return r.LenMin(1) }

// LenMin is Len for a slice whose elements each take at least min
// bytes, a small layout constant: a length that many elements could
// not fill from the bytes that remain fails before the caller
// allocates for it.
func (r *Reader) LenMin(min int) (n int, isNil bool) {
	u := r.Uvarint()
	if u == 0 {
		return 0, true
	}
	if left := uint64(len(r.buf)); u-1 > left || (u-1)*uint64(min) > left {
		r.fail("length %d of %d-byte elements exceeds the %d bytes left", u-1, min, len(r.buf))
		return 0, true
	}
	return int(u - 1), false
}

// take returns the next n bytes, which the caller has bounded by the
// bytes left.
func (r *Reader) take(n int) []byte {
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	u := r.Uvarint()
	if u > uint64(len(r.buf)) {
		r.fail("string length %d exceeds the %d bytes left", u, len(r.buf))
		return ""
	}
	return string(r.take(int(u)))
}

// Bytes reads a length-prefixed byte slice into a fresh slice.
func (r *Reader) Bytes() []byte {
	n, isNil := r.Len()
	if isNil {
		return nil
	}
	return append(make([]byte, 0, n), r.take(n)...)
}

// Uvarints reads a length-prefixed slice of unsigned varints.
func (r *Reader) Uvarints() []uint64 {
	n, isNil := r.Len()
	if isNil {
		return nil
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = r.Uvarint()
	}
	return s
}

// Ints reads a length-prefixed slice of zig-zag varints.
func (r *Reader) Ints() []int {
	n, isNil := r.Len()
	if isNil {
		return nil
	}
	s := make([]int, n)
	for i := range s {
		s[i] = r.Int()
	}
	return s
}
