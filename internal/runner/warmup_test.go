package runner

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"resizecache/internal/sim"
)

func marshalResult(t *testing.T, r sim.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sampledWarmupConfig returns a sampled config with a warmup prefix —
// the shape that exercises the runner's checkpoint tier.
func sampledWarmupConfig() sim.Config {
	cfg := sim.Default("gcc")
	cfg.Instructions = 120_000
	cfg.Sampling = sim.SamplingSpec{
		WarmupInstructions:      10_000,
		DetailedInstructions:    5_000,
		FastForwardInstructions: 10_000,
		SkipInstructions:        15_000,
	}
	return cfg
}

// TestRunnerWarmupCheckpointCounters: the default entry points thread
// warmup checkpoints through the Runner's store, and the Stats counters
// expose what happened — one save for the first config, one hit for a
// second config sharing the front-end.
func TestRunnerWarmupCheckpointCounters(t *testing.T) {
	store := NewMemStore()
	r := New(Options{Store: store})

	a := sampledWarmupConfig()
	b := a
	b.DCache.Geom.SizeBytes = a.DCache.Geom.SizeBytes / 2
	if a.WarmKey() != b.WarmKey() {
		t.Fatal("test configs must share a warmup key")
	}

	if _, err := r.Run(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.WarmupSaves != 1 || st.WarmupHits != 0 {
		t.Fatalf("after cold run: %d saves, %d hits; want 1, 0", st.WarmupSaves, st.WarmupHits)
	}

	if _, err := r.Run(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.WarmupHits != 1 {
		t.Fatalf("second geometry should restore the shared checkpoint: %+v", st)
	}
	if !strings.Contains(st.String(), "warmups: 1 checkpoint hits, 1 saves") {
		t.Errorf("Stats.String omits warmup counters: %s", st.String())
	}
	if d := st.Delta(Stats{WarmupHits: 1}); d.WarmupHits != 0 || d.WarmupSaves != 1 {
		t.Errorf("Delta ignores warmup counters: %+v", d)
	}
}

// TestRunnerWarmupCheckpointAcrossRunners: a fresh Runner sharing the
// same persistent store restores warmup checkpoints recorded by its
// predecessor — the cross-process replay CI smokes. The result must be
// bit-identical to a store-less run.
func TestRunnerWarmupCheckpointAcrossRunners(t *testing.T) {
	cfg := sampledWarmupConfig()
	baseline, err := New(Options{}).Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	store := NewMemStore()
	if _, err := New(Options{Store: store}).Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	// The second "process": same store, empty memo table. The result
	// memo also hits, so drop the stored result to force a re-simulation
	// that can only skip warmup via the checkpoint.
	store.mu.Lock()
	store.results = map[string]StoredResult{}
	store.mu.Unlock()

	r2 := New(Options{Store: store})
	res, err := r2.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.WarmupHits != 1 || st.WarmupSaves != 0 {
		t.Fatalf("replay runner: %d hits, %d saves; want 1, 0", st.WarmupHits, st.WarmupSaves)
	}
	if marshalResult(t, res) != marshalResult(t, baseline) {
		t.Error("checkpoint-restored result differs from store-less run")
	}
}

// TestRunnerGangWarmupCheckpoint: gang-coalesced enqueues thread the
// checkpoint store too — a gang of same-front sampled configs records
// the shared warmup once.
func TestRunnerGangWarmupCheckpoint(t *testing.T) {
	store := NewMemStore()
	r := New(Options{Store: store})

	base := sampledWarmupConfig()
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].DCache.Geom.Assoc = 1 << i
	}
	n, wait := r.Enqueue(context.Background(), Jobs(cfgs))
	if n != len(cfgs) {
		t.Fatalf("enqueued %d of %d", n, len(cfgs))
	}
	wait()

	st := r.Stats()
	if st.GangBatches == 0 {
		t.Fatalf("expected a coalesced gang: %+v", st)
	}
	if st.WarmupSaves == 0 {
		t.Errorf("gang run did not record the warmup checkpoint: %+v", st)
	}
	solo, err := New(Options{}).Run(context.Background(), cfgs[2])
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(context.Background(), cfgs[2])
	if err != nil {
		t.Fatal(err)
	}
	if marshalResult(t, got) != marshalResult(t, solo) {
		t.Error("ganged sampled result differs from solo run")
	}
}
