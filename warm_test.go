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
	runGang := func(g sim.Gang) error {
		for i, cfg := range g.Cfgs {
			*g.Out[i] = stubResult(*cfg)
		}
		return nil
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

// TestWarmPlanAllocs bounds the allocations of a warm six-scenario
// plan — gcc and m88ksim, each resizing the d-cache, the i-cache and
// both, under the Hybrid dynamic strategy — on a session whose memo
// holds every sweep and combined run. The plan runs on one goroutine
// and resolves its two combined runs at once, so only the per-plan
// bookkeeping, the resolved sweeps, their decoded winners and the
// per-scenario profiling buffers allocate. The whole call measures 62
// allocations, against 79 when every scenario gathered on a goroutine
// of its own and arrived at a shared batcher of combined runs.
func TestWarmPlanAllocs(t *testing.T) {
	var scs []Scenario
	for _, app := range []string{"gcc", "m88ksim"} {
		for _, sd := range []Sides{DOnly, IOnly, BothSides} {
			scs = append(scs, Scenario{Benchmark: app, Organization: Hybrid, Strategy: Dynamic,
				Sides: sd, Instructions: 50_000})
		}
	}
	plan, err := PlanOf(scs...)
	if err != nil {
		t.Fatal(err)
	}
	s := stubbedStoreSession(nil)
	ctx := context.Background()
	if _, err := Collect(s.Run(ctx, plan)); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		for r := range s.Run(ctx, plan) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	})
	const bound = 70
	if n > bound {
		t.Errorf("warm plan makes %v allocations, want at most %d", n, bound)
	}
}
