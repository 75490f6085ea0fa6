package runner

import (
	"bytes"
	"reflect"
	"testing"

	"resizecache/internal/payload/payloadtest"
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
