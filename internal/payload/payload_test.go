package payload

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// fields is one value of every field kind, written and read in order.
type fields struct {
	u64   uint64
	f64   float64
	uv    uint64
	i     int
	b     bool
	s     string
	bs    []byte
	uvs   []uint64
	ints  []int
	empty []int
}

func (f *fields) write(w *Writer) {
	w.U64(f.u64)
	w.F64(f.f64)
	w.Uvarint(f.uv)
	w.Int(f.i)
	w.Bool(f.b)
	w.Str(f.s)
	w.Bytes(f.bs)
	w.Uvarints(f.uvs)
	w.Ints(f.ints)
	w.Ints(f.empty)
}

func (f *fields) read(r *Reader) {
	f.u64 = r.U64()
	f.f64 = r.F64()
	f.uv = r.Uvarint()
	f.i = r.Int()
	f.b = r.Bool()
	f.s = r.Str()
	f.bs = r.Bytes()
	f.uvs = r.Uvarints()
	f.ints = r.Ints()
	f.empty = r.Ints()
}

func sample() fields {
	return fields{
		u64: math.MaxUint64 - 7, f64: math.Copysign(0, -1), uv: 1 << 50, i: -12345,
		b: true, s: "L2", bs: []byte{0, 1, 2, 3}, uvs: []uint64{0, 127, 128, math.MaxUint64},
		ints: []int{math.MinInt64, -1, 0, 1, math.MaxInt64}, empty: []int{},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	var w Writer
	want.write(&w)

	for name, r := range map[string]Reader{
		"binary": Reader{buf: w.buf},
		"sealed": Open(w.Seal()),
	} {
		var got fields
		got.read(&r)
		if err := r.Done(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) || math.Signbit(got.f64) != math.Signbit(want.f64) {
			t.Errorf("%s: round trip gave %+v, want %+v", name, got, want)
		}
	}
}

// TestNilAndEmptyStayApart: the length prefix keeps a nil slice nil and
// an empty slice empty.
func TestNilAndEmptyStayApart(t *testing.T) {
	var w Writer
	w.Bytes(nil)
	w.Bytes([]byte{})
	w.Uvarints(nil)
	w.Uvarints([]uint64{})
	r := Reader{buf: w.buf}
	if b := r.Bytes(); b != nil {
		t.Errorf("nil bytes read back as %#v", b)
	}
	if b := r.Bytes(); b == nil || len(b) != 0 {
		t.Errorf("empty bytes read back as %#v", b)
	}
	if s := r.Uvarints(); s != nil {
		t.Errorf("nil uvarints read back as %#v", s)
	}
	if s := r.Uvarints(); s == nil || len(s) != 0 {
		t.Errorf("empty uvarints read back as %#v", s)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestSealIsJSONString(t *testing.T) {
	var w Writer
	sample := sample()
	sample.write(&w)
	sealed := w.Seal()
	var s string
	if err := json.Unmarshal(sealed, &s); err != nil {
		t.Fatalf("sealed payload is not a JSON string: %v", err)
	}
}

// TestReaderRejects: every malformed input fails the sticky error, and
// later reads return zero values instead of panicking.
func TestReaderRejects(t *testing.T) {
	var good Writer
	sample := sample()
	sample.write(&good)
	valid := good.buf
	sealed := string(good.Seal())
	var lying Writer
	lying.U64(1)
	lying.F64(1)
	lying.Uvarint(1)
	lying.Int(1)
	lying.Bool(true)
	lying.Uvarint(1 << 40)
	lying.Str("L2")

	for name, tc := range map[string]struct {
		r    Reader
		want string
	}{
		"truncated":       {Reader{buf: valid[:len(valid)-1]}, "truncated"},
		"trailing":        {Reader{buf: append(append([]byte(nil), valid...), 0)}, "trailing"},
		"not sealed":      {Open([]byte(`{"version":1}`)), "not a sealed"},
		"non-base64":      {Open([]byte(`"!!!!"`)), "illegal base64"},
		"base64 newline":  {Open([]byte(sealed[:5] + "\n" + sealed[5:])), "non-canonical base64"},
		"lying length":    {Reader{buf: lying.buf}, "exceeds"},
		"overlong varint": {Reader{buf: append(valid[:16:16], 0x80, 0x00)}, "overlong"},
		"bool byte":       {Reader{buf: append(valid[:16:16], 1, 2, 2)}, "bool byte"},
	} {
		var f fields
		f.read(&tc.r)
		err := tc.r.Done()
		if err == nil {
			t.Errorf("%s: decoded without error", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to mention %q", name, err, tc.want)
		}
	}
}

// TestHugeLengthDoesNotAllocate: a length prefix of 2^40 fails against
// the bytes that remain before any slice is allocated for it.
func TestHugeLengthDoesNotAllocate(t *testing.T) {
	data := binary.AppendUvarint(nil, 1<<40+1)
	data = append(data, bytes.Repeat([]byte{1}, 64)...)
	reads := map[string]func(*Reader){
		"Bytes":    func(r *Reader) { r.Bytes() },
		"Uvarints": func(r *Reader) { r.Uvarints() },
		"Ints":     func(r *Reader) { r.Ints() },
		"Str":      func(r *Reader) { r.Str() },
	}
	for name, read := range reads {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := Reader{buf: data}
		read(&r)
		runtime.ReadMemStats(&after)
		if r.Done() == nil {
			t.Errorf("%s: a 2^40 length prefix decoded", name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: a 2^40 length prefix allocated %d bytes", name, d)
		}
	}
}
