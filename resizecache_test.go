package resizecache

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"resizecache/internal/runner"
)

func TestBenchmarksList(t *testing.T) {
	b := Benchmarks()
	if len(b) != 12 {
		t.Fatalf("Benchmarks() = %v", b)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Scenario{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
	if _, err := Simulate(Scenario{Benchmark: "gcc"}); err == nil {
		t.Fatal("non-resizable organization accepted")
	}
	err := func() error {
		_, err := Simulate(Scenario{Benchmark: "nosuch", Organization: SelectiveSets})
		return err
	}()
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The error must identify the bad name and the valid set up front,
	// not surface from deep inside the workload layer.
	if !strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "gcc") {
		t.Errorf("unhelpful unknown-benchmark error: %v", err)
	}
}

func TestSimulateRejectsUnsupportedAssoc(t *testing.T) {
	// Associativities the geometry layer cannot build must fail fast with
	// a clear error instead of profiling a degenerate config.
	for _, assoc := range []int{-1, 3, 5, 64} {
		_, err := Simulate(Scenario{Benchmark: "gcc", Organization: SelectiveSets, Assoc: assoc})
		if err == nil {
			t.Errorf("assoc %d accepted", assoc)
			continue
		}
		if !strings.Contains(err.Error(), "associativity") {
			t.Errorf("assoc %d: unhelpful error: %v", assoc, err)
		}
	}
	// Powers of two the geometry supports still normalize fine.
	for _, assoc := range []int{1, 2, 16, 32} {
		sc := Scenario{Benchmark: "gcc", Organization: SelectiveSets, Assoc: assoc}
		if _, err := sc.normalize(); err != nil {
			t.Errorf("assoc %d rejected: %v", assoc, err)
		}
	}
}

func TestSidesNormalization(t *testing.T) {
	base := Scenario{Benchmark: "gcc", Organization: SelectiveSets}
	cases := []struct {
		name string
		sc   Scenario
		want Sides
	}{
		{"default", base, BothSides},
		{"explicit d", func() Scenario { s := base; s.Sides = DOnly; return s }(), DOnly},
		{"explicit i", func() Scenario { s := base; s.Sides = IOnly; return s }(), IOnly},
	}
	for _, c := range cases {
		n, err := c.sc.normalize()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if n.Sides != c.want {
			t.Errorf("%s: normalized to %v, want %v", c.name, n.Sides, c.want)
		}
	}
}

func TestSimulateContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateContext(ctx, Scenario{
		Benchmark:    "m88ksim",
		Organization: SelectiveSets,
		Sides:        DOnly,
		Instructions: 300_000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSessionSharesMemoizedResults(t *testing.T) {
	s := NewSession()
	sc := Scenario{
		Benchmark:    "m88ksim",
		Organization: SelectiveSets,
		Sides:        DOnly,
		Instructions: 200_000,
	}
	first, err := s.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	cold := s.Stats()
	second, err := s.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	warm := s.Stats()
	if warm.Runs != cold.Runs {
		t.Errorf("repeated scenario re-simulated: %d -> %d runs", cold.Runs, warm.Runs)
	}
	// The repeat resolves at the sweep level (whole-profiling-sweep
	// artifact hits) without even reaching the per-config memo table.
	if warm.ArtifactHits <= cold.ArtifactHits {
		t.Errorf("repeated scenario scored no sweep-level reuse: %+v", warm)
	}
	if warm.Submitted != cold.Submitted {
		t.Errorf("repeated scenario reached the per-config layer: %+v", warm)
	}
	// Outcome.Stats are per-call deltas, so the warm call reports its own
	// (hit-only) activity; the scenario outcome itself must not change.
	first.Stats, second.Stats = runner.Stats{}, runner.Stats{}
	if first != second {
		t.Errorf("memoized outcome changed: %+v vs %+v", first, second)
	}
}

func TestOutcomeStatsArePerCallDeltas(t *testing.T) {
	s := NewSession()
	sc := Scenario{
		Benchmark:    "m88ksim",
		Organization: SelectiveSets,
		Sides:        DOnly,
		Instructions: 200_000,
	}
	cold, err := s.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Runs == 0 || cold.Stats.ArtifactComputes == 0 {
		t.Errorf("cold outcome reports no work: %+v", cold.Stats)
	}
	warm, err := s.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Stats are per-call deltas: the warm repeat did no simulation work
	// of its own — it resolved at the sweep-artifact tier — and must say
	// so, instead of echoing the session's cumulative counters.
	if warm.Stats.Runs != 0 || warm.Stats.Submitted != 0 {
		t.Errorf("warm outcome claims fresh work: %+v", warm.Stats)
	}
	if warm.Stats.ArtifactHits == 0 {
		t.Errorf("warm outcome reports no sweep-level reuse: %+v", warm.Stats)
	}
	if warm.Stats.ArtifactComputes != 0 {
		t.Errorf("warm outcome claims artifact computes: %+v", warm.Stats)
	}
	// The session-level view stays cumulative.
	if st := s.Stats(); st.Runs != cold.Stats.Runs || st.ArtifactHits == 0 {
		t.Errorf("session stats lost history: %+v", st)
	}
}

func TestSessionPersistsAcrossProcessesViaStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.json")
	sc := Scenario{
		Benchmark:    "m88ksim",
		Organization: SelectiveSets,
		Sides:        DOnly,
		Instructions: 200_000,
	}
	s1, err := NewSessionWith(SessionOptions{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s1.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}

	// A fresh session on the same store (a new process, in real use)
	// resolves the whole profiling sweep without simulating.
	s2, err := NewSessionWith(SessionOptions{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s2.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Runs != 0 {
		t.Errorf("resumed session simulated %d configs, want 0", second.Stats.Runs)
	}
	if second.Stats.ArtifactStoreHits == 0 {
		t.Errorf("resumed session scored no artifact store hits: %+v", second.Stats)
	}
	first.Stats, second.Stats = runner.Stats{}, runner.Stats{}
	if first != second {
		t.Errorf("resumed outcome differs: %+v vs %+v", first, second)
	}
}

func TestStrategyString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatal("strategy strings wrong")
	}
}

func TestSimulateSingleCache(t *testing.T) {
	out, err := Simulate(Scenario{
		Benchmark:    "m88ksim",
		Organization: SelectiveSets,
		Sides:        DOnly,
		Instructions: 300_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.DCacheSizeReductionPct <= 0 {
		t.Errorf("m88ksim d-cache did not shrink: %+v", out)
	}
	if out.ICacheSizeReductionPct != 0 || out.IChosen != "" {
		t.Errorf("i-cache should be untouched: %+v", out)
	}
	if out.EDPReductionPct <= 0 {
		t.Errorf("no EDP gain: %+v", out)
	}
}

func TestSimulateBothCachesDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("combined sweep in -short mode")
	}
	out, err := Simulate(Scenario{
		Benchmark:    "ammp",
		Organization: SelectiveSets,
		Instructions: 300_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.DChosen == "" || out.IChosen == "" {
		t.Fatalf("both caches should be profiled: %+v", out)
	}
	if out.EDPReductionPct <= 0 {
		t.Errorf("combined resizing should gain EDP: %+v", out)
	}
}

func TestL2ScenarioNormalization(t *testing.T) {
	// L2-only resizing has two spellings that must normalize identically.
	a, err := Scenario{Benchmark: "gcc", Sides: L2Only,
		L2: L2Spec{Organization: SelectiveWays}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scenario{Benchmark: "gcc",
		L2: L2Spec{Organization: SelectiveWays}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("L2-only spellings diverge: %+v vs %+v", a, b)
	}
	if a.Sides != L2Only || a.Organization != NonResizable {
		t.Errorf("canonical L2-only form wrong: %+v", a)
	}
	if a.L2.Assoc != 4 {
		t.Errorf("L2 associativity not defaulted: %+v", a.L2)
	}

	// An explicitly default L2 associativity on a fixed L2 folds away.
	c, err := Scenario{Benchmark: "gcc", Organization: SelectiveSets,
		L2: L2Spec{Assoc: 4}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Scenario{Benchmark: "gcc", Organization: SelectiveSets}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c != d {
		t.Errorf("default L2 assoc spelled explicitly did not fold: %+v vs %+v", c, d)
	}

	// Invalid combinations fail fast.
	cases := map[string]Scenario{
		"L2Only without resizable L2": {Benchmark: "gcc", Sides: L2Only},
		"nothing to resize":           {Benchmark: "gcc"},
		"L2 resize on NoL2":           {Benchmark: "gcc", Hierarchy: NoL2, L2: L2Spec{Organization: SelectiveSets}},
		"L2 assoc on NoL2":            {Benchmark: "gcc", Organization: SelectiveSets, Hierarchy: NoL2, L2: L2Spec{Assoc: 8}},
		"bad L2 assoc":                {Benchmark: "gcc", Organization: SelectiveSets, L2: L2Spec{Assoc: 3}},
		"unknown hierarchy":           {Benchmark: "gcc", Organization: SelectiveSets, Hierarchy: Hierarchy(99)},
		// An explicit L1 side with no resizable L1 organization asked for
		// something the scenario cannot do — it must not silently fold to
		// an L2-only experiment.
		"explicit DOnly without L1 org": {Benchmark: "gcc", Sides: DOnly,
			L2: L2Spec{Organization: SelectiveWays}},
		// L2 associativity is judged against the hierarchy's actual L2:
		// 128 ways fit the base 512K L2 but not the 256K SmallL2.
		"assoc too high for SmallL2": {Benchmark: "gcc", Organization: SelectiveSets,
			Hierarchy: SmallL2, L2: L2Spec{Assoc: 128}},
	}
	for name, sc := range cases {
		if _, err := sc.normalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// ... while 128 ways on the base 512K L2 (4K ways = one subarray) and
	// on the 1M BigL2 are geometrically sound.
	for _, h := range []Hierarchy{BaseL2, BigL2} {
		sc := Scenario{Benchmark: "gcc", Organization: SelectiveSets,
			Hierarchy: h, L2: L2Spec{Organization: SelectiveWays, Assoc: 128}}
		if _, err := sc.normalize(); err != nil {
			t.Errorf("%v with 128-way L2 rejected: %v", h, err)
		}
	}
}

func TestSimulateL2Only(t *testing.T) {
	out, err := Simulate(Scenario{
		Benchmark:    "m88ksim",
		Sides:        L2Only,
		L2:           L2Spec{Organization: SelectiveWays},
		Instructions: 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.L2Chosen == "" {
		t.Fatalf("no L2 configuration chosen: %+v", out)
	}
	if out.DChosen != "" || out.IChosen != "" {
		t.Errorf("L1s should be untouched: %+v", out)
	}
	if out.L2SizeReductionPct <= 0 {
		t.Errorf("m88ksim's L2 should shrink: %+v", out)
	}
	sum := out.Energy.CorePct + out.Energy.L1IPct + out.Energy.L1DPct +
		out.Energy.L2Pct + out.Energy.MemPct
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("energy shares sum to %.2f%%: %+v", sum, out.Energy)
	}
}

func TestSimulateL1PlusL2Combined(t *testing.T) {
	if testing.Short() {
		t.Skip("two profiling sweeps plus a combined run in -short mode")
	}
	out, err := Simulate(Scenario{
		Benchmark:    "m88ksim",
		Organization: SelectiveSets,
		Sides:        DOnly,
		L2:           L2Spec{Organization: SelectiveWays},
		Instructions: 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.DChosen == "" || out.L2Chosen == "" {
		t.Fatalf("both caches should be profiled: %+v", out)
	}
	if out.IChosen != "" {
		t.Errorf("i-cache should be untouched: %+v", out)
	}
	if out.DCacheSizeReductionPct <= 0 || out.L2SizeReductionPct <= 0 {
		t.Errorf("both resized caches should shrink on m88ksim: %+v", out)
	}
}

func TestSimulateHierarchies(t *testing.T) {
	if testing.Short() {
		t.Skip("hierarchy sweep in -short mode")
	}
	for _, h := range []Hierarchy{NoL2, SmallL2, DeepL2L3} {
		out, err := Simulate(Scenario{
			Benchmark:    "m88ksim",
			Organization: SelectiveSets,
			Sides:        DOnly,
			Hierarchy:    h,
			Instructions: 150_000,
		})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if out.DChosen == "" {
			t.Errorf("%v: no d-cache winner: %+v", h, out)
		}
		if h == NoL2 && out.Energy.L2Pct != 0 {
			t.Errorf("NoL2 charged L2 energy: %+v", out.Energy)
		}
		if h != NoL2 && out.Energy.L2Pct <= 0 {
			t.Errorf("%v: no L2 energy share: %+v", h, out.Energy)
		}
	}
}

func TestStrategyRangeCheckedBeforeL2OnlyFold(t *testing.T) {
	// A garbage L1 strategy must error even when the scenario folds to
	// L2Only (where a valid strategy would be canonicalized away).
	bad := Scenario{Benchmark: "gcc", Sides: L2Only, Strategy: Strategy(9),
		L2: L2Spec{Organization: SelectiveWays}}
	if _, err := bad.normalize(); err == nil {
		t.Error("out-of-range strategy accepted on an L2Only scenario")
	}
	// ... while a valid Dynamic still folds to Static for dedup.
	ok := Scenario{Benchmark: "gcc", Sides: L2Only, Strategy: Dynamic,
		L2: L2Spec{Organization: SelectiveWays}}
	n, err := ok.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Strategy != Static {
		t.Errorf("inert L1 strategy not canonicalized: %+v", n)
	}
}

func TestL2StrategyRangeCheckedOnFixedL2(t *testing.T) {
	// A garbage L2 strategy errors even when the L2 is not resizing...
	bad := Scenario{Benchmark: "gcc", Organization: SelectiveSets,
		L2: L2Spec{Strategy: Strategy(9)}}
	if _, err := bad.normalize(); err == nil {
		t.Error("out-of-range L2 strategy accepted on a fixed L2")
	}
	// ...while a valid-but-inert Dynamic folds away for grid dedup.
	ok := Scenario{Benchmark: "gcc", Organization: SelectiveSets,
		L2: L2Spec{Strategy: Dynamic}}
	n, err := ok.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.L2.Strategy != Static {
		t.Errorf("inert L2 strategy not canonicalized: %+v", n.L2)
	}
}
