package resizecache

import (
	"context"
	"sync/atomic"
	"testing"

	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// artifactLookupCounter counts artifact lookups reaching a store.
type artifactLookupCounter struct {
	runner.Store
	n atomic.Int64
}

func (s *artifactLookupCounter) LookupArtifact(k sim.Key) ([]byte, bool) {
	s.n.Add(1)
	return s.Store.LookupArtifact(k)
}

// stubbedStoreSession is stubbedSession over a persistent store.
func stubbedStoreSession(store runner.Store) *Session {
	runGang := func(cfgs []sim.Config) ([]sim.Result, error) {
		out := make([]sim.Result, len(cfgs))
		for i, cfg := range cfgs {
			out[i] = stubResult(cfg)
		}
		return out, nil
	}
	return &Session{r: runner.New(runner.Options{Workers: 4, RunGang: runGang, Store: store}), store: store}
}

// TestWarmPlanLooksUpEachSweepOnce: a warm plan on a fresh session
// fetches each sweep's artifact from the store exactly once — the
// enqueue pass's probe promotes it, and the gather resolves from memory.
func TestWarmPlanLooksUpEachSweepOnce(t *testing.T) {
	plan, err := PlanOf(
		Scenario{Benchmark: "m88ksim", Organization: SelectiveSets, Sides: DOnly, Instructions: 50_000},
		Scenario{Benchmark: "m88ksim", Organization: SelectiveSets, Strategy: Dynamic,
			Sides: BothSides, Instructions: 50_000},
		Scenario{Benchmark: "vpr", Organization: SelectiveWays, Sides: IOnly, Instructions: 50_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	const sweeps = 4 // d static; d and i dynamic; i static
	mem := runner.NewMemStore()
	if _, err := Collect(stubbedStoreSession(mem).Run(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}

	store := &artifactLookupCounter{Store: mem}
	s := stubbedStoreSession(store)
	if _, err := Collect(s.Run(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}
	if n := store.n.Load(); n != sweeps {
		t.Errorf("warm plan made %d artifact lookups, want %d (one per sweep)", n, sweeps)
	}
	if st := s.Stats(); st.Runs != 0 || st.ArtifactStoreHits != sweeps || st.ArtifactComputes != 0 {
		t.Errorf("warm plan stats = %+v, want 0 runs, %d artifact store hits, 0 computes", st, sweeps)
	}
}

// TestWarmSimulateAllocs bounds the allocations of a warm Simulate of
// a dynamic both-sides scenario: one baseline shared by its two
// 211-config sweeps, their fingerprints, decoding their cached winners
// and the combined run's memo hit. Only the baseline, the resolved
// sweeps, the decoded winners and the combined Best allocate; the
// fingerprints and the schedules do not. The whole call measures 17
// allocations, against 44 when every sweep built its schedule and
// hashed its baseline, and 37,360 when every config key allocated and
// every sweep was materialized.
func TestWarmSimulateAllocs(t *testing.T) {
	s := stubbedStoreSession(nil)
	sc := Scenario{Benchmark: "gcc", Organization: Hybrid, Strategy: Dynamic,
		Sides: BothSides, Instructions: 50_000}
	if _, err := s.Simulate(sc); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := s.Simulate(sc); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 17
	if n > bound {
		t.Errorf("warm Simulate makes %v allocations, want at most %d", n, bound)
	}
}

// TestSessionArtifactReturnsACopy pins the public Artifact contract:
// the payload a caller gets is its own, so modifying it cannot corrupt
// the cached payload later hits return.
func TestSessionArtifactReturnsACopy(t *testing.T) {
	s := stubbedStoreSession(nil)
	plan, err := PlanOf(Scenario{Benchmark: "gcc", Organization: SelectiveSets, Instructions: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	compute := func(context.Context) ([]byte, error) { return []byte(`{"rows":[1]}`), nil }
	first, err := s.Artifact(context.Background(), "copy-test", 1, plan, compute)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		first[i] = 'x'
	}
	again, err := s.Artifact(context.Background(), "copy-test", 1, plan, compute)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != `{"rows":[1]}` {
		t.Errorf("a caller's write to its payload reached the cache: later hit = %q", again)
	}
}
