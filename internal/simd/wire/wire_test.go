package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
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

// FuzzReadFrame feeds arbitrary bytes to ReadFrame. It must never panic,
// and a frame that decodes must survive WriteFrame and a second
// ReadFrame as the same value, up to the encoder's normal form of the
// raw JSON fields (compacted and HTML-escaped).
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var first Request
		if ReadFrame(bytes.NewReader(data), &first) != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, first); err != nil {
			t.Fatalf("re-encode a decoded frame: %v", err)
		}
		var second Request
		if err := ReadFrame(&buf, &second); err != nil {
			t.Fatalf("read back a re-encoded frame: %v", err)
		}
		first.Scenarios = normalRaw(t, first.Scenarios)
		first.Value = normalRaw(t, first.Value)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("round trip changed the frame:\nfirst:  %+v\nsecond: %+v", first, second)
		}
	})
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
}
