package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"resizecache/internal/payload/payloadtest"
)

// TestBestLayoutCoversEveryField fills every field of a Best — its two
// Results included, through nested structs, pointers and slices, with
// slices full, empty and nil — and requires the stored layout to read
// it back equal and re-encode it to the same bytes. A field added to
// Best or to anything it stores fails here until the layout writes it.
func TestBestLayoutCoversEveryField(t *testing.T) {
	for _, shape := range []payloadtest.Slices{payloadtest.Full, payloadtest.Empty, payloadtest.Nil} {
		var b Best
		payloadtest.Fill(&b, shape)
		data := encodeBest(&b)
		got, err := decodeBest(data)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Errorf("%s round trip:\ngot  %+v\nwant %+v", shape, got, b)
		}
		if !bytes.Equal(encodeBest(&got), data) {
			t.Errorf("%s: re-encodes to different bytes", shape)
		}
	}
}

// FuzzBest feeds arbitrary bytes to the cached-Best decoder. It must
// never panic, and a payload that decodes must re-encode to the same
// bytes: the layout has one encoding per value.
func FuzzBest(f *testing.F) {
	var b Best
	payloadtest.Fill(&b, payloadtest.Full)
	f.Add(encodeBest(&b))
	f.Fuzz(func(t *testing.T, data []byte) {
		best, err := decodeBest(data)
		if err != nil {
			return
		}
		if again := encodeBest(&best); !bytes.Equal(again, data) {
			t.Errorf("decoded payload re-encodes differently:\nin:  %q\nout: %q", data, again)
		}
	})
}
