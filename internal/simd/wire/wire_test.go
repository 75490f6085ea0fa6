package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"resizecache/internal/sim"
)

// TestReadFrameLyingHeader: a header claiming MaxFrame followed by no
// body must neither allocate the claimed size nor pass for a clean
// hangup between frames.
func TestReadFrameLyingHeader(t *testing.T) {
	var frame [4]byte
	binary.BigEndian.PutUint32(frame[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := ReadFrame(bytes.NewReader(frame[:]), &Request{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a 4-byte input allocated %d bytes", alloc)
	}
}

// TestReadFrameRoundTripsLargeFrame: a body past the up-front
// allocation still reads back whole.
func TestReadFrameRoundTripsLargeFrame(t *testing.T) {
	want := Request{V: ProtocolVersion, ID: 7, Op: OpRecordArtifact,
		Value: json.RawMessage(`"` + strings.Repeat("x", 3*exactFrame+5) + `"`)}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := ReadFrame(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("large frame read back differently (%d value bytes, want %d)", len(got.Value), len(want.Value))
	}
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame, as a Request frame
// and as a Response frame. It must never panic; a frame that decodes
// must survive WriteFrame and a second ReadFrame as the same value, up
// to the encoder's normal form of the raw JSON fields (compacted and
// HTML-escaped); and wherever the envelope parser accepts a body, the
// input itself or a frame's, it must decode what json.Unmarshal does.
func FuzzReadFrame(f *testing.F) {
	sealed := json.RawMessage(`"AAECAwQ="`)
	for _, v := range []any{
		Request{V: ProtocolVersion, ID: 1, Op: OpPlan, Scenarios: sealed},
		Request{V: ProtocolVersion, ID: 2, Op: OpRecord, Key: strings.Repeat("ab", 32), Value: sealed},
		Request{V: ProtocolVersion, Op: OpCancel, Target: 9},
		Response{ID: 3, Kind: KindResult, Index: 4, Outcome: sealed, Completed: 1, Total: 5},
		Response{ID: 4, Kind: KindReply, Found: true, Value: json.RawMessage(`{"a": [1, 2]}`)},
		Response{ID: 5, Kind: KindError, Err: `unknown op "x<y>"`},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[4:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFrame(t, data, normalRequest, parseRequest)
		fuzzFrame(t, data, normalResponse, parseResponse)
	})
}

func fuzzFrame[T Request | Response](t *testing.T, data []byte, normal func(*testing.T, *T), parse func([]byte, *T) bool) {
	agreeOnBody(t, data, parse)
	if len(data) >= 4 {
		if n := binary.BigEndian.Uint32(data); uint64(n) <= uint64(len(data)-4) {
			agreeOnBody(t, data[4:4+n], parse)
		}
	}
	var first T
	if ReadFrame(bytes.NewReader(data), &first) != nil {
		return
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, first); err != nil {
		t.Fatalf("re-encode a decoded frame: %v", err)
	}
	var second T
	if err := ReadFrame(&buf, &second); err != nil {
		t.Fatalf("read back a re-encoded frame: %v", err)
	}
	normal(t, &first)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("round trip changed the frame:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// agreeOnBody checks that a body the envelope parser accepts decodes to
// what json.Unmarshal makes of it, keeping the target's other fields as
// json.Unmarshal does.
func agreeOnBody[T Request | Response](t *testing.T, body []byte, parse func([]byte, *T) bool) {
	var fast, slow T
	prefill(&fast)
	prefill(&slow)
	if !parse(body, &fast) {
		return
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatalf("parser accepted %q, which json.Unmarshal rejects: %v", body, err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("parser and json.Unmarshal disagree on %q:\nparser:    %+v\nUnmarshal: %+v", body, fast, slow)
	}
}

// prefill gives a decode target values that a body without the field
// leaves in place.
func prefill(v any) {
	switch v := v.(type) {
	case *Request:
		*v = Request{ID: 77, Key: "kept", Value: json.RawMessage(`"kept"`)}
	case *Response:
		*v = Response{Index: 77, Err: "kept", Found: true}
	}
}

func normalRequest(t *testing.T, q *Request) {
	q.Scenarios = normalRaw(t, q.Scenarios)
	q.Value = normalRaw(t, q.Value)
}

func normalResponse(t *testing.T, r *Response) {
	r.Outcome = normalRaw(t, r.Outcome)
	r.Value = normalRaw(t, r.Value)
}

// normalRaw is the form json.Marshal gives a RawMessage.
func normalRaw(t *testing.T, raw json.RawMessage) json.RawMessage {
	if len(raw) == 0 {
		return raw
	}
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		t.Fatalf("decoded raw field is not JSON: %v", err)
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return escaped.Bytes()
}

// wireStrings are the string field values the encode property draws
// from: plain ones the codec writes itself, and every kind it leaves to
// json.Marshal.
var wireStrings = []string{
	"", OpPlan, KindResult, "0123456789abcdef", "plain text, with spaces ~!",
	"naïve 日本 \U0001F600", "\x7f", "quote \" here", `back\slash`,
	"a<b", "a>b", "a&b", "line\nbreak", "tab\t\r\b\f", "\x00\x01\x1f",
	"bad \xff utf8", "\xed\xa0\x80", "sep \u2028 and \u2029", "\ufffd",
}

// wireRaws are the raw field values it draws from: sealed payloads, and
// JSON json.Marshal compacts, escapes or rejects.
var wireRaws = []json.RawMessage{
	nil, {}, json.RawMessage(`""`), json.RawMessage(`"AAECAwQFBgc="`), json.RawMessage(`"+/+/"`),
	json.RawMessage(`{"rows":[1,2]}`), json.RawMessage(` { "a" : [ 1 , 2 ] } `),
	json.RawMessage(`"<"`), json.RawMessage(`">"`), json.RawMessage(`"&"`), json.RawMessage("\"\u2028\""), json.RawMessage(`"\u00e9"`),
	json.RawMessage("\"\xff\""), json.RawMessage(`12`), json.RawMessage(`null`), json.RawMessage(`true`),
	json.RawMessage(`{`), json.RawMessage(`"open`), json.RawMessage(`[1,]`), json.RawMessage(`1 2`),
}

// TestWriteFrameMatchesMarshal: for generated Requests and Responses
// over those strings and raws, WriteFrame writes json.Marshal's body
// byte for byte, or fails where json.Marshal fails.
func TestWriteFrameMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	ints := []int{0, 1, -1, 42, 1 << 40, math.MaxInt64, math.MinInt64}
	uints := []uint64{0, 1, 10, 1 << 63, math.MaxUint64}
	str := func() string { return wireStrings[rng.IntN(len(wireStrings))] }
	raw := func() json.RawMessage { return wireRaws[rng.IntN(len(wireRaws))] }
	in := func() int { return ints[rng.IntN(len(ints))] }
	un := func() uint64 { return uints[rng.IntN(len(uints))] }
	for range 20000 {
		q := Request{V: in(), ID: un(), Op: str(), Scenarios: raw(), Target: un(), Key: str(), Value: raw()}
		r := Response{ID: un(), Kind: str(), Index: in(), Outcome: raw(), Err: str(),
			Completed: in(), Total: in(), Found: rng.IntN(2) == 1, Value: raw()}
		for _, v := range []any{q, &q, r, &r} {
			var buf bytes.Buffer
			werr := WriteFrame(&buf, v)
			want, merr := json.Marshal(v)
			if (werr != nil) != (merr != nil) {
				t.Fatalf("%+v: WriteFrame error %v, json.Marshal error %v", v, werr, merr)
			}
			if werr != nil {
				if buf.Len() != 0 {
					t.Fatalf("%+v: a failed WriteFrame wrote %d bytes", v, buf.Len())
				}
				continue
			}
			frame := buf.Bytes()
			if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-4 {
				t.Fatalf("%+v: length prefix %d for a %d-byte body", v, n, len(frame)-4)
			}
			if body := frame[4:]; !bytes.Equal(body, want) {
				t.Fatalf("%+v:\nWriteFrame:   %s\njson.Marshal: %s", v, body, want)
			}
		}
	}
}

// TestCodecCoversEveryField sets every field of a Request and of a
// Response, by reflection, to a value the envelope codec writes itself,
// as the hot frames' fields are: a field added to either type fails
// here until the codec's encoder and parser both handle it.
func TestCodecCoversEveryField(t *testing.T) {
	var q Request
	var r Response
	for _, v := range []any{&q, &r} {
		s := reflect.ValueOf(v).Elem()
		for i := range s.NumField() {
			f := s.Field(i)
			switch f.Interface().(type) {
			case json.RawMessage:
				f.SetBytes([]byte(`"AAEC+/8="`)) // a sealed payload's alphabet
			case string:
				f.SetString("s")
			case bool:
				f.SetBool(true)
			case int:
				f.SetInt(int64(-i - 1))
			case uint64:
				f.SetUint(uint64(i + 1))
			default:
				t.Fatalf("%T.%s: the codec has no case for %s", v, s.Type().Field(i).Name, f.Type())
			}
		}
	}
	check := func(name string, v any, body []byte, ok bool) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(body, want) {
			t.Errorf("%s: codec wrote %s (%t), json.Marshal %s", name, body, ok, want)
		}
	}
	body, ok := appendRequest(nil, &q)
	check("Request", q, body, ok)
	var gotQ Request
	if !parseRequest(body, &gotQ) || !reflect.DeepEqual(gotQ, q) {
		t.Errorf("Request: parsed back as %+v, want %+v", gotQ, q)
	}
	body, ok = appendResponse(nil, &r)
	check("Response", r, body, ok)
	var gotR Response
	if !parseResponse(body, &gotR) || !reflect.DeepEqual(gotR, r) {
		t.Errorf("Response: parsed back as %+v, want %+v", gotR, r)
	}
}

func TestParseKey(t *testing.T) {
	for _, app := range []string{"gcc", "vpr", "swim"} {
		k := sim.Default(app).Key()
		got, err := ParseKey(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKey(%s) = %v, %v; want %v", k, got, err, k)
		}
	}
	valid := sim.Default("gcc").Key().String()
	for name, s := range map[string]string{
		"odd length": valid[1:],
		"non-hex":    "zz" + valid[2:],
		"short":      valid[:len(valid)-2],
		"long":       valid + "00",
		"empty":      "",
	} {
		if k, err := ParseKey(s); err == nil {
			t.Errorf("%s: ParseKey(%q) = %v, want an error", name, s, k)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ParseKey(valid) }); n != 0 {
		t.Errorf("ParseKey allocates %.0f times per call", n)
	}
}
