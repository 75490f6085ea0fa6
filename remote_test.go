package resizecache

import (
	"bytes"
	"reflect"
	"testing"

	"resizecache/internal/payload"
	"resizecache/internal/payload/payloadtest"
	"resizecache/internal/runner"
)

// TestOutcomeLayoutCoversEveryField fills every field of an Outcome —
// each runner.Stats counter included — with distinct values and
// requires the wire layout to read it back equal and re-encode it to
// the same bytes. A field added to Outcome or EnergyShares fails here
// until the layout writes it; a counter added to runner.Stats is
// carried without a layout edit.
func TestOutcomeLayoutCoversEveryField(t *testing.T) {
	for _, shape := range []payloadtest.Slices{payloadtest.Full, payloadtest.Empty, payloadtest.Nil} {
		var o Outcome
		payloadtest.Fill(&o, shape)
		data, _ := o.MarshalBinary()
		var got Outcome
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !reflect.DeepEqual(got, o) {
			t.Errorf("%s round trip:\ngot  %+v\nwant %+v", shape, got, o)
		}
		if again, _ := got.MarshalBinary(); !bytes.Equal(again, data) {
			t.Errorf("%s: re-encodes to different bytes", shape)
		}
	}
}

// TestOutcomeRejectsStatsCountMismatch: a payload whose Stats run has a
// counter more or fewer than runner.Stats (a peer built with another
// counter set) fails to decode and leaves the Outcome unchanged.
func TestOutcomeRejectsStatsCountMismatch(t *testing.T) {
	n := reflect.TypeOf(runner.Stats{}).NumField()
	for _, delta := range []int{-1, 1} {
		var w payload.Writer
		for range 10 {
			w.F64(1.5)
		}
		w.Str("d")
		w.Str("i")
		w.Str("l2")
		w.Uvarint(uint64(n + delta))
		for i := range n + delta {
			w.Uvarint(uint64(i))
		}
		got := Outcome{DChosen: "kept"}
		if err := got.UnmarshalBinary(w.Seal()); err == nil {
			t.Errorf("%d stats counters decoded; runner.Stats has %d", n+delta, n)
		}
		if got != (Outcome{DChosen: "kept"}) {
			t.Errorf("a rejected payload changed the Outcome: %+v", got)
		}
	}
}

// FuzzOutcome feeds arbitrary bytes to the outcome decoder, which reads
// a daemon's result frames. It must never panic, and a payload that
// decodes must re-encode to the same bytes.
func FuzzOutcome(f *testing.F) {
	var o Outcome
	payloadtest.Fill(&o, payloadtest.Full)
	data, _ := o.MarshalBinary()
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		var o Outcome
		if o.UnmarshalBinary(data) != nil {
			return
		}
		if again, _ := o.MarshalBinary(); !bytes.Equal(again, data) {
			t.Errorf("decoded payload re-encodes differently:\nin:  %q\nout: %q", data, again)
		}
	})
}
