package sim

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"resizecache/internal/cpu"
	"resizecache/internal/workload"
)

// fidelitySpec is the schedule the fidelity assertions run: dense enough
// that the ~100-150K-instruction golden budgets still yield 3+ steady
// windows, with the skip mechanism exercised.
func fidelitySpec() SamplingSpec {
	return SamplingSpec{
		DetailedInstructions:    5_000,
		FastForwardInstructions: 10_000,
		SkipInstructions:        15_000,
	}
}

// mapStore is an in-memory CheckpointStore for tests (the real backends
// live in internal/runner, which depends on this package).
type mapStore struct{ m map[Key][]byte }

func newMapStore() *mapStore                            { return &mapStore{m: map[Key][]byte{}} }
func (s *mapStore) LookupArtifact(k Key) ([]byte, bool) { d, ok := s.m[k]; return d, ok }
func (s *mapStore) RecordArtifact(k Key, d []byte) {
	s.m[k] = append([]byte(nil), d...)
}

func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSampledFidelityWithinErrorBars runs every golden-fixture config
// sampled and fully detailed, and requires each sampled estimate to land
// within its own declared error bars: three standard errors plus a 2%
// systematic allowance for the stratified estimator's residual (the
// cold-start transient that extends past the first window; see
// windowAccum). Everything here is deterministic, so these are exact
// reproducible inequalities, not flaky statistics.
func TestSampledFidelityWithinErrorBars(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		if cfg.Sampling.Enabled() {
			continue // already sampled; its detailed twin is in the corpus
		}
		full, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := cfg
		s.Sampling = fidelitySpec()
		sam, err := Run(s)
		if err != nil {
			t.Fatalf("%s sampled: %v", name, err)
		}
		rep := sam.Sample
		if rep == nil {
			t.Fatalf("%s: sampled run has no SampleReport", name)
		}
		if rep.Windows < 3 {
			t.Fatalf("%s: only %d windows; fidelity spec should give 3+", name, rep.Windows)
		}
		if rep.TotalInstructions != cfg.Instructions {
			t.Errorf("%s: estimates represent %d instructions, budget is %d", name, rep.TotalInstructions, cfg.Instructions)
		}
		if sam.CPU.Instructions != cfg.Instructions {
			t.Errorf("%s: CPU.Instructions = %d, want full budget %d", name, sam.CPU.Instructions, cfg.Instructions)
		}

		const biasAllowance = 0.02
		check := func(metric string, got, want, relSE float64) {
			if want == 0 {
				t.Fatalf("%s: zero full-run %s", name, metric)
			}
			err := math.Abs(got-want) / want
			tol := 3*relSE + biasAllowance
			if err > tol {
				t.Errorf("%s: %s off by %.2f%%, outside declared bars (3×%.4f + %.0f%% = %.2f%%)",
					name, metric, 100*err, relSE, 100*biasAllowance, 100*tol)
			}
		}
		check("cycles", float64(sam.CPU.Cycles), float64(full.CPU.Cycles), rep.CPIRelStdErr)
		check("energy", sam.Energy.TotalJ(), full.Energy.TotalJ(), rep.EPIRelStdErr)
		check("EDP", sam.EDP.Product(), full.EDP.Product(), rep.EDPRelStdErr)
	}
}

// TestSampledRunDeterministic: the same sampled config twice is
// bit-identical — skips, window boundaries, and the RNG jumps are all
// deterministic.
func TestSampledRunDeterministic(t *testing.T) {
	cfg := goldenConfigs()["gcc-ooo-base"]
	cfg.Sampling = DefaultSampling()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, a) != resultJSON(t, b) {
		t.Fatal("two identical sampled runs differ")
	}
}

// TestCheckpointResumeBitIdentical is the tentpole's core guarantee: a
// run that restores the warmup prefix from a checkpoint produces exactly
// the Result a cold run produces — the checkpoint carries the complete
// front-end warm state, and caches start cold at the first window either
// way.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cfg := goldenConfigs()["gcc-ooo-base"]
	cfg.Sampling = fidelitySpec()
	cfg.Sampling.WarmupInstructions = 10_000

	noStore, ws, err := RunWithCheckpoints(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws != (WarmupStats{}) {
		t.Errorf("nil store produced checkpoint traffic: %+v", ws)
	}

	st := newMapStore()
	cold, wsCold, err := RunWithCheckpoints(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if !wsCold.CheckpointSaved || wsCold.CheckpointHit {
		t.Errorf("cold run with empty store: stats %+v, want saved-not-hit", wsCold)
	}
	warm, wsWarm, err := RunWithCheckpoints(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if !wsWarm.CheckpointHit || wsWarm.CheckpointSaved {
		t.Errorf("second run with warm store: stats %+v, want hit-not-saved", wsWarm)
	}

	coldJSON := resultJSON(t, cold)
	if got := resultJSON(t, warm); got != coldJSON {
		t.Error("checkpoint-resumed run differs from cold run")
	}
	if got := resultJSON(t, noStore); got != coldJSON {
		t.Error("store-less run differs from cold run with store")
	}
}

// TestWarmupCheckpointSharedAcrossGeometries: the checkpoint key is the
// front-end fingerprint, so configs that differ only in their memory
// system share one warmup checkpoint.
func TestWarmupCheckpointSharedAcrossGeometries(t *testing.T) {
	a := goldenConfigs()["gcc-ooo-base"]
	a.Sampling = fidelitySpec()
	a.Sampling.WarmupInstructions = 10_000
	b := a
	b.DCache.Geom.SizeBytes = a.DCache.Geom.SizeBytes / 2

	if a.Key() == b.Key() {
		t.Fatal("test configs should have distinct Keys")
	}
	if a.WarmKey() != b.WarmKey() {
		t.Fatal("configs differing only in cache geometry should share a WarmKey")
	}

	st := newMapStore()
	if _, ws, err := RunWithCheckpoints(a, st); err != nil || !ws.CheckpointSaved {
		t.Fatalf("first config: err=%v stats=%+v, want a save", err, ws)
	}
	fromCheckpoint, ws, err := RunWithCheckpoints(b, st)
	if err != nil {
		t.Fatal(err)
	}
	if !ws.CheckpointHit {
		t.Errorf("second geometry should hit the shared checkpoint: %+v", ws)
	}
	coldB, _, err := RunWithCheckpoints(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, fromCheckpoint) != resultJSON(t, coldB) {
		t.Error("checkpoint shared across geometries changed the result")
	}
}

// oldFormatCheckpoint is p as checkpoint format version 1 stored it:
// JSON, which the binary layout must reject rather than misread.
func oldFormatCheckpoint(t *testing.T, p checkpointPayload) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Version  int               `json:"version"`
		Consumed uint64            `json:"consumed"`
		Gen      workload.Snapshot `json:"gen"`
		Front    cpu.FrontEndState `json:"front"`
	}{1, p.Consumed, p.Gen, p.Front})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCorruptCheckpointFallsBack: undecodable, version-mismatched,
// old-format or partly mis-shaped stored payloads must never fail a run
// — they fall back to a cold warmup and are overwritten. A payload
// whose predictor fits but whose BTB (or one predictor component, or
// generator snapshot) does not must leave no restored part behind for
// the cold warmup to start from, and a generator snapshot must stand
// where the prefix ended. The mis-shaped payloads go through the real
// encoder, so each reaches the check it targets.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	cfg := goldenConfigs()["gcc-ooo-base"]
	cfg.Sampling = fidelitySpec()
	cfg.Sampling.WarmupInstructions = 10_000
	saved := newMapStore()
	cold, _, err := RunWithCheckpoints(cfg, saved)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON := resultJSON(t, cold)
	valid, err := decodeCheckpoint(saved.m[cfg.WarmKey()])
	if err != nil {
		t.Fatal(err)
	}
	// reshaped returns the saved payload with one part cut down.
	reshaped := func(cut func(*checkpointPayload)) []byte {
		p, err := decodeCheckpoint(saved.m[cfg.WarmKey()])
		if err != nil {
			t.Fatal(err)
		}
		cut(&p)
		return encodeCheckpoint(&p)
	}

	for name, payload := range map[string][]byte{
		"garbage":       []byte("{not json"),
		"wrong-version": reshaped(func(p *checkpointPayload) { p.Version = 99 }),
		"old-format":    oldFormatCheckpoint(t, valid),
		"truncated":     saved.m[cfg.WarmKey()][:len(saved.m[cfg.WarmKey()])/2],
		"truncated-btb": reshaped(func(p *checkpointPayload) {
			p.Front.BTB.Tags = p.Front.BTB.Tags[:1]
		}),
		"truncated-predictor-component": reshaped(func(p *checkpointPayload) {
			p.Front.Predictor.Comp2.Table = p.Front.Predictor.Comp2.Table[:1]
		}),
		"counter-out-of-range": reshaped(func(p *checkpointPayload) {
			p.Front.Predictor.Table[len(p.Front.Predictor.Table)-1] = 4
		}),
		"phase-out-of-range": reshaped(func(p *checkpointPayload) {
			p.Gen.PhaseIdx = 99
		}),
		"no-data-cursors": reshaped(func(p *checkpointPayload) {
			p.Gen.DCursors = nil
		}),
		"exhausted-early": reshaped(func(p *checkpointPayload) {
			p.Gen.Exhausted = true
		}),
		"phase-position": reshaped(func(p *checkpointPayload) {
			p.Gen.PhaseLeft--
		}),
	} {
		st := newMapStore()
		st.RecordArtifact(cfg.WarmKey(), payload)
		res, ws, err := RunWithCheckpoints(cfg, st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ws.CheckpointHit {
			t.Errorf("%s: corrupt checkpoint reported as hit", name)
		}
		if !ws.CheckpointSaved {
			t.Errorf("%s: corrupt checkpoint not overwritten", name)
		}
		if resultJSON(t, res) != coldJSON {
			t.Errorf("%s: result differs from cold run", name)
		}
	}
}

// TestSampledGangMatchesSolo: a sampled gang must stay bit-identical to
// its members run alone (Run, a gang of one), exactly like the detailed
// gang paths.
func TestSampledGangMatchesSolo(t *testing.T) {
	base := goldenConfigs()["gcc-ooo-base"]
	base.Sampling = fidelitySpec()
	base.Sampling.WarmupInstructions = 10_000
	small := base
	small.DCache.Geom.SizeBytes = base.DCache.Geom.SizeBytes / 2
	ways := base
	ways.DCache.Geom.Assoc = 2
	cfgs := []Config{base, small, ways}

	gang, ws, err := (*Streams)(nil).RunGang(cfgs, newMapStore())
	if err != nil {
		t.Fatal(err)
	}
	if !ws.CheckpointSaved {
		t.Errorf("sampled gang with empty store should save the warmup: %+v", ws)
	}
	for i, cfg := range cfgs {
		solo, err := Run(cfg)
		if err != nil {
			t.Fatalf("member %d solo: %v", i, err)
		}
		if resultJSON(t, gang[i]) != resultJSON(t, solo) {
			t.Errorf("gang member %d differs from solo run", i)
		}
	}
}

// TestSamplingValidation: partial specs and degenerate warmups are
// errors, not silent fallbacks.
func TestSamplingValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		spec SamplingSpec
		want string
	}{
		"detailed-only":    {SamplingSpec{DetailedInstructions: 5_000}, "partial sampling spec"},
		"fastforward-only": {SamplingSpec{FastForwardInstructions: 5_000}, "partial sampling spec"},
		"skip-only":        {SamplingSpec{SkipInstructions: 5_000}, "partial sampling spec"},
		"warmup-only":      {SamplingSpec{WarmupInstructions: 5_000}, "partial sampling spec"},
		"warmup-eats-budget": {SamplingSpec{
			WarmupInstructions: 200_000, DetailedInstructions: 5_000, FastForwardInstructions: 10_000,
		}, "consumes the whole"},
	} {
		cfg := Default("gcc")
		cfg.Instructions = 120_000
		cfg.Sampling = tc.spec
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want %q", name, err, tc.want)
		}
	}
}

// TestDetailedRunHasNoSampleReport: fully detailed results must not grow
// a Sample field — the golden fixtures pin their JSON byte-for-byte.
func TestDetailedRunHasNoSampleReport(t *testing.T) {
	res, err := Run(goldenConfigs()["gcc-ooo-base"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample != nil {
		t.Fatalf("detailed run carries SampleReport %+v", res.Sample)
	}
	if s := resultJSON(t, res); strings.Contains(s, "Sample") {
		t.Error("detailed Result JSON mentions Sample; fixtures would change")
	}
}
