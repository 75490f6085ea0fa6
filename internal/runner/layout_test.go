package runner

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"resizecache/internal/payload"
	"resizecache/internal/payload/payloadtest"
	"resizecache/internal/sim"
)

// TestStoredResultLayoutCoversEveryField fills every field of a
// StoredResult — its Result included, through nested structs, pointers
// and slices, with slices full, empty and nil — and requires the wire
// layout to read it back equal and re-encode it to the same bytes. A
// field added to StoredResult or to anything it stores fails here until
// the layout writes it.
func TestStoredResultLayoutCoversEveryField(t *testing.T) {
	for _, shape := range []payloadtest.Slices{payloadtest.Full, payloadtest.Empty, payloadtest.Nil} {
		var sr StoredResult
		payloadtest.Fill(&sr, shape)
		data, _ := sr.MarshalBinary()
		var got StoredResult
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !reflect.DeepEqual(got, sr) {
			t.Errorf("%s round trip:\ngot  %+v\nwant %+v", shape, got, sr)
		}
		if again, _ := got.MarshalBinary(); !bytes.Equal(again, data) {
			t.Errorf("%s: re-encodes to different bytes", shape)
		}
	}
}

// TestStoredResultBoundsLevelsCount: a stored result whose Levels count
// claims a million levels in a megabyte of filler fails to decode
// before the decoder allocates the reports, which are more than twice
// the size of their smallest layout.
func TestStoredResultBoundsLevelsCount(t *testing.T) {
	var w payload.Writer
	var empty sim.Result
	empty.AppendPayload(&w)
	sealed := w.Seal()
	bin, err := base64.StdEncoding.DecodeString(string(sealed[1 : len(sealed)-1]))
	if err != nil {
		t.Fatal(err)
	}
	// An empty Result ends in its nil Levels prefix and its Sample flag.
	lying := binary.AppendUvarint(bin[:len(bin)-2], 1<<20+1)
	lying = append(lying, make([]byte, 1<<20)...)
	data := []byte(`"` + base64.StdEncoding.EncodeToString(lying) + `"`)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sr StoredResult
	err = sr.UnmarshalBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a million levels in a megabyte decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Errorf("a lying Levels count allocated %d MB decoding a %d KB payload", alloc>>20, len(data)>>10)
	}
}

// FuzzStoredResult feeds arbitrary bytes to the stored-result decoder,
// which reads what a simd peer sends. It must never panic, and a
// payload that decodes must re-encode to the same bytes: the layout has
// one encoding per value.
func FuzzStoredResult(f *testing.F) {
	var sr StoredResult
	payloadtest.Fill(&sr, payloadtest.Full)
	data, _ := sr.MarshalBinary()
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sr StoredResult
		if sr.UnmarshalBinary(data) != nil {
			return
		}
		if again, _ := sr.MarshalBinary(); !bytes.Equal(again, data) {
			t.Errorf("decoded payload re-encodes differently:\nin:  %q\nout: %q", data, again)
		}
	})
}
