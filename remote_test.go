package resizecache

import (
	"bytes"
	"reflect"
	"runtime"
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

// TestScenarioLayoutCoversEveryField fills every field of a plan's
// scenarios — two of them, none, or a nil list — and requires the wire
// layout to give them back, and to re-encode to the same bytes.
func TestScenarioLayoutCoversEveryField(t *testing.T) {
	for _, shape := range []payloadtest.Slices{payloadtest.Full, payloadtest.Empty, payloadtest.Nil} {
		var plan struct{ Scenarios []Scenario }
		payloadtest.Fill(&plan, shape)
		data := MarshalScenarios(plan.Scenarios)
		got, err := UnmarshalScenarios(data)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !reflect.DeepEqual(got, plan.Scenarios) {
			t.Errorf("%s round trip:\ngot  %+v\nwant %+v", shape, got, plan.Scenarios)
		}
		if again := MarshalScenarios(got); !bytes.Equal(again, data) {
			t.Errorf("%s: re-encodes to different bytes", shape)
		}
	}
}

// TestUnmarshalScenariosBoundsCount: a count prefix claiming more
// scenarios than the bytes left could hold fails before the decoder
// allocates for them, and so does one a byte short of the smallest
// scenario.
func TestUnmarshalScenariosBoundsCount(t *testing.T) {
	var lying payload.Writer
	lying.Uvarint(1 << 40)
	lying.Bytes(make([]byte, 64))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalScenarios(lying.Seal())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a count of 2^40 scenarios in 71 bytes decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<16 {
		t.Errorf("a lying count allocated %d bytes", alloc)
	}

	var short payload.Writer
	short.Len(1, false)
	for range scenarioMinBytes - 1 {
		short.Uvarint(0)
	}
	if scs, err := UnmarshalScenarios(short.Seal()); err == nil {
		t.Errorf("one scenario in %d bytes decoded as %+v", scenarioMinBytes-1, scs)
	}
	if scs, err := UnmarshalScenarios(MarshalScenarios([]Scenario{{}})); err != nil || len(scs) != 1 {
		t.Errorf("the smallest scenario decoded as %+v, %v", scs, err)
	}
}

// FuzzScenarios feeds arbitrary bytes to the scenario-list decoder, which
// reads every plan a daemon is sent. It must never panic, it decodes
// no more scenarios than the bytes could hold, and a payload that
// decodes must re-encode to the same bytes.
func FuzzScenarios(f *testing.F) {
	var plan struct{ Scenarios []Scenario }
	payloadtest.Fill(&plan, payloadtest.Full)
	f.Add(MarshalScenarios(plan.Scenarios))
	f.Add(MarshalScenarios([]Scenario{{Benchmark: "gcc", Organization: Hybrid, Strategy: Dynamic,
		Sampling: DefaultSampling(), Instructions: 200_000}}))
	f.Add(MarshalScenarios(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		scs, err := UnmarshalScenarios(data)
		if err != nil {
			return
		}
		if len(scs)*scenarioMinBytes > len(data) {
			t.Errorf("%d scenarios decoded from %d bytes", len(scs), len(data))
		}
		if again := MarshalScenarios(scs); !bytes.Equal(again, data) {
			t.Errorf("decoded payload re-encodes differently:\nin:  %q\nout: %q", data, again)
		}
	})
}
