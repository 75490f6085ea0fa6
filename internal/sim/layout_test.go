package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"resizecache/internal/bpred"
	"resizecache/internal/payload"
	"resizecache/internal/payload/payloadtest"
)

// TestLayoutsCoverEveryField fills every field of a Result and of a
// checkpoint payload with distinct values — through nested structs,
// pointers and slices, with slices full, empty and nil — and requires
// the binary layouts to read them back equal and re-encode them to the
// same bytes. A field added to Result, CacheReport, SampleReport,
// cpu.Activity, workload.Snapshot, cpu.FrontEndState or the bpred states
// fails here until layout.go writes and reads it.
func TestLayoutsCoverEveryField(t *testing.T) {
	for _, shape := range []payloadtest.Slices{payloadtest.Full, payloadtest.Empty, payloadtest.Nil} {
		var res Result
		payloadtest.Fill(&res, shape)
		var w payload.Writer
		res.AppendPayload(&w)
		sealed := w.Seal()
		rd := payload.Open(sealed)
		var got Result
		got.ReadPayload(&rd)
		if err := rd.Done(); err != nil {
			t.Fatalf("%s Result: %v", shape, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("%s Result round trip:\ngot  %+v\nwant %+v", shape, got, res)
		}
		var again payload.Writer
		got.AppendPayload(&again)
		if !bytes.Equal(again.Seal(), sealed) {
			t.Errorf("%s Result re-encodes to different bytes", shape)
		}

		var p checkpointPayload
		payloadtest.Fill(&p, shape)
		p.Version = checkpointFormatVersion
		data := encodeCheckpoint(&p)
		back, err := decodeCheckpoint(data)
		if err != nil {
			t.Fatalf("%s checkpoint: %v", shape, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Errorf("%s checkpoint round trip:\ngot  %+v\nwant %+v", shape, back, p)
		}
		if !bytes.Equal(encodeCheckpoint(&back), data) {
			t.Errorf("%s checkpoint re-encodes to different bytes", shape)
		}
	}
}

// nestedPredictor returns a predictor state whose Comp1 chain nests
// levels deep.
func nestedPredictor(levels int) bpred.PredictorState {
	s := bpred.PredictorState{Kind: "bimodal", Table: []byte{1}}
	for range levels {
		inner := s
		s = bpred.PredictorState{Kind: "combining", Table: []byte{2}, Comp1: &inner}
	}
	return s
}

// TestCheckpointPredictorNestingBounded: a stored predictor state may
// nest maxPredictorNesting levels of components and no more, and a
// crafted chain a million levels deep fails without recursing through
// it (the decoder would otherwise allocate a state per level and, at a
// store payload's size limit, overflow the stack).
func TestCheckpointPredictorNestingBounded(t *testing.T) {
	for _, tc := range []struct {
		levels int
		ok     bool
	}{{maxPredictorNesting, true}, {maxPredictorNesting + 1, false}} {
		p := checkpointPayload{Version: checkpointFormatVersion}
		p.Front.Predictor = nestedPredictor(tc.levels)
		back, err := decodeCheckpoint(encodeCheckpoint(&p))
		if tc.ok && (err != nil || !reflect.DeepEqual(back, p)) {
			t.Errorf("%d levels: did not round-trip: %v", tc.levels, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "nests deeper")) {
			t.Errorf("%d levels: error %v, want a nesting error", tc.levels, err)
		}
	}

	const levels = 1 << 20
	var w payload.Writer
	for range levels {
		w.Str("")
		w.Bytes(nil)
		w.Uvarint(0)
		w.Bool(true) // Comp1 follows
	}
	rd := payload.Open(w.Seal())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	readPredictor(&rd, 0)
	runtime.ReadMemStats(&after)
	if rd.Done() == nil {
		t.Fatalf("a %d-level predictor chain decoded", levels)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("a %d-level predictor chain allocated %d bytes before failing", levels, d)
	}
}

// FuzzCheckpoint feeds arbitrary bytes to a sampled run as its stored
// warmup checkpoint. The run must never panic or fail, and a payload it
// rejects must report no hit and give the cold Result.
func FuzzCheckpoint(f *testing.F) {
	cfg := sampledCheckpointConfig()
	cfg.Instructions = 30_000
	saved := newMapStore()
	cold, _, err := RunWithCheckpoints(cfg, saved)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved.m[cfg.WarmKey()])
	f.Fuzz(func(t *testing.T, data []byte) {
		st := newMapStore()
		st.RecordArtifact(cfg.WarmKey(), data)
		res, ws, err := RunWithCheckpoints(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if ws.CheckpointHit {
			return
		}
		if !ws.CheckpointSaved {
			t.Error("rejected checkpoint not overwritten")
		}
		if !reflect.DeepEqual(res, cold) {
			diffResult(t, "rejected checkpoint", cold, res)
		}
	})
}
