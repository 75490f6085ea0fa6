package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/workload"
)

// fastOpts trades fidelity for test speed; claim tests use tolerant
// thresholds accordingly. Full-fidelity numbers come from cmd/figures.
func fastOpts() Options {
	// 1M instructions covers at least one full phase period of every
	// profile; shorter runs truncate phase structure and distort the
	// profiling sweeps.
	o := DefaultOptions()
	o.Instructions = 1_000_000
	return o
}

// runSweep resolves spec and runs its sweep, failing the test on an
// error.
func runSweep(t *testing.T, spec SweepSpec, opts Options) Best {
	t.Helper()
	sw, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	best, err := sw.Best(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return best
}

// staticBest runs the static sweep NewSweepSpec builds for the
// arguments: every schedule point of org, minimum EDP wins.
func staticBest(t *testing.T, app string, side Side, org core.Organization, assoc int, opts Options) Best {
	t.Helper()
	return runSweep(t, NewSweepSpec(app, side, org, assoc, false, opts), opts)
}

func TestStaticSweepPicksProfiledMinimum(t *testing.T) {
	opts := fastOpts()
	best := staticBest(t, "m88ksim", DSide, core.SelectiveSets, 2, opts)
	// m88ksim's tiny working set must downsize substantially and win EDP.
	if best.SizeReductionPct() < 40 {
		t.Errorf("m88ksim size reduction %.1f%%, want >= 40%%", best.SizeReductionPct())
	}
	if best.EDPReductionPct() <= 5 {
		t.Errorf("m88ksim EDP reduction %.1f%%, want > 5%%", best.EDPReductionPct())
	}
	if best.Spec.Kind != sim.PolicyStatic {
		t.Error("static sweep returned non-static spec")
	}
}

// TestSoloSweepGangsCandidates: a lone sweep (the sequential Simulate
// path, no plan in sight) must still route its candidates through the
// runner's batched Enqueue, so same-front configs coalesce into gangs.
func TestSoloSweepGangsCandidates(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 60_000
	r := runner.New(runner.Options{})
	opts.Runner = r
	staticBest(t, "m88ksim", DSide, core.SelectiveSets, 2, opts)
	st := r.Stats()
	if st.EnqueueBatches == 0 || st.Enqueued == 0 {
		t.Fatalf("solo sweep bypassed Enqueue: %+v", st)
	}
	if st.Ganged == 0 || st.GangBatches == 0 {
		t.Errorf("solo sweep coalesced no gangs: %+v", st)
	}
}

func TestSwimNeverDownsizes(t *testing.T) {
	opts := fastOpts()
	for _, org := range []core.Organization{core.SelectiveWays, core.SelectiveSets} {
		best := staticBest(t, "swim", DSide, org, 4, opts)
		if best.SizeReductionPct() > 1 {
			t.Errorf("swim downsized %.1f%% under %v; paper: working set fills 32K",
				best.SizeReductionPct(), org)
		}
	}
}

func TestCompressFavorsWaysGranularity(t *testing.T) {
	// compress's ~20K working set needs the 24K point only selective-ways
	// offers at 4-way (paper §4.1).
	opts := fastOpts()
	w := staticBest(t, "compress", DSide, core.SelectiveWays, 4, opts)
	s := staticBest(t, "compress", DSide, core.SelectiveSets, 4, opts)
	if w.EDPReductionPct() <= s.EDPReductionPct() {
		t.Errorf("compress: ways %.1f%% should beat sets %.1f%%",
			w.EDPReductionPct(), s.EDPReductionPct())
	}
	if !strings.Contains(w.Desc, "24K") {
		t.Errorf("compress ways chose %s, want the 24K point", w.Desc)
	}
}

func TestConflictAppsFavorSets(t *testing.T) {
	// Conflict-bound apps keep their conflict groups resident only while
	// associativity is maintained (paper Fig. 5a). The paper also lists
	// su2cor here; our su2cor profile emphasizes its periodic phase
	// behaviour (Fig. 7) instead — see EXPERIMENTS.md deviations.
	opts := fastOpts()
	for _, app := range []string{"apsi", "vpr", "tomcatv"} {
		w := staticBest(t, app, DSide, core.SelectiveWays, 4, opts)
		s := staticBest(t, app, DSide, core.SelectiveSets, 4, opts)
		if s.EDPReductionPct() <= w.EDPReductionPct() {
			t.Errorf("%s: sets %.1f%% should beat ways %.1f%%",
				app, s.EDPReductionPct(), w.EDPReductionPct())
		}
	}
}

func TestCombinedResizingIsAdditive(t *testing.T) {
	if testing.Short() {
		t.Skip("three-run experiment in -short mode")
	}
	opts := fastOpts()
	app := "m88ksim"
	dBest := staticBest(t, app, DSide, core.SelectiveSets, 2, opts)
	iBest := staticBest(t, app, ISide, core.SelectiveSets, 2, opts)
	both, err := CombinedBests(context.Background(), BaseConfig(app, 2, opts), []Best{dBest, iBest}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := dBest.EDPReductionPct() + iBest.EDPReductionPct()
	got := both.EDPReductionPct()
	if got < 0.7*sum || got > 1.3*sum+2 {
		t.Errorf("combined %.1f%% not additive vs d+i sum %.1f%%", got, sum)
	}
}

func TestSlowdownEnvelopeHolds(t *testing.T) {
	// Paper: every reported point is within 6%% performance degradation.
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	opts := fastOpts()
	for _, app := range []string{"ammp", "compress", "gcc", "swim"} {
		for _, org := range []core.Organization{core.SelectiveWays, core.SelectiveSets} {
			best := staticBest(t, app, DSide, org, 4, opts)
			if best.SlowdownPct() > 6 {
				t.Errorf("%s/%v: slowdown %.1f%% exceeds 6%%", app, org, best.SlowdownPct())
			}
		}
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	cfgs := []sim.Config{sim.Default("gcc"), sim.Default("nosuch")}
	cfgs[0].Instructions = 1000
	opts := DefaultOptions()
	opts.Runner = runner.New(runner.Options{Workers: 2})
	if _, err := opts.runner().RunAll(context.Background(), runner.Jobs(cfgs)); err == nil {
		t.Fatal("bad config did not surface")
	}
}

func TestSweepsRejectBothSides(t *testing.T) {
	opts := DefaultOptions()
	for _, dynamic := range []bool{false, true} {
		if _, err := NewSweepSpec("gcc", BothSides, core.SelectiveSets, 2, dynamic, opts).Resolve(); err == nil {
			t.Errorf("sweep (dynamic %v) accepted BothSides", dynamic)
		}
	}
}

func TestSideString(t *testing.T) {
	if DSide.String() != "d-cache" || ISide.String() != "i-cache" ||
		BothSides.String() != "d+i-caches" {
		t.Fatal("Side strings wrong")
	}
}

func TestDynamicCandidatesDeduplicated(t *testing.T) {
	sched, err := core.BuildSchedule(l1Geom(2), core.SelectiveSets)
	if err != nil {
		t.Fatal(err)
	}
	var cands []sim.PolicySpec
	dynamicCandidates(sched, false, func(p sim.PolicySpec) bool {
		cands = append(cands, p)
		return true
	})
	seen := map[sim.PolicySpec]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %+v", c)
		}
		seen[c] = true
		if c.Kind != sim.PolicyDynamic || c.MissBound == 0 || c.Interval == 0 {
			t.Fatalf("degenerate candidate %+v", c)
		}
	}
	if len(cands) < 10 {
		t.Fatalf("only %d candidates", len(cands))
	}
}

// tinyArtifactOpts runs one app at minimal fidelity on a private runner
// — enough to exercise caching plumbing without a full-fidelity sweep.
func tinyArtifactOpts() Options {
	opts := DefaultOptions()
	opts.Instructions = 60_000
	opts.Apps = []string{"m88ksim"}
	opts.Runner = runner.New(runner.Options{})
	return opts
}

// TestCombinedUsesProfiledSpecs guards the Figure 9 plumbing: the
// combined run must hold exactly the schedule points named by the
// profiled winners' Spec.StaticIndex — not points re-derived from
// average sizes, which can mispick between near-equal entries.
func TestCombinedUsesProfiledSpecs(t *testing.T) {
	opts := tinyArtifactOpts()
	sched, err := core.BuildSchedule(l1Geom(2), core.SelectiveSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Points) < 3 {
		t.Fatalf("schedule too short: %d points", len(sched.Points))
	}
	dIdx, iIdx := 1, 2
	mkBest := func(side Side, idx int) Best {
		return Best{App: "m88ksim", Side: side, Org: core.SelectiveSets,
			Spec: sim.PolicySpec{Kind: sim.PolicyStatic, StaticIndex: idx}}
	}
	comb, err := CombinedBests(context.Background(), BaseConfig("m88ksim", 2, opts),
		[]Best{mkBest(DSide, dIdx), mkBest(ISide, iIdx)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, avg float64, idx int) {
		want := float64(sched.Points[idx].Bytes)
		if avg < 0.99*want || avg > 1.01*want {
			t.Errorf("%s held %.0f bytes, want schedule point %d (%.0f)", name, avg, idx, want)
		}
	}
	check("d-cache", comb.Chosen.DCache.AvgBytes, dIdx)
	check("i-cache", comb.Chosen.ICache.AvgBytes, iIdx)
}

// TestSweepArtifactWarmsAcrossDrivers: regenerating one figure's grid
// warms the next. A Figure-6-shaped grid repeats a Figure-4-shaped
// grid's (ways, sets) cells and adds hybrid; the repeated cells must
// resolve as whole-sweep artifact hits, and re-running the first grid
// must submit zero configs.
func TestSweepArtifactWarmsAcrossDrivers(t *testing.T) {
	opts := tinyArtifactOpts()
	grid := func(orgs ...core.Organization) {
		t.Helper()
		for _, side := range []Side{DSide, ISide} {
			for _, org := range orgs {
				for _, app := range opts.apps() {
					staticBest(t, app, side, org, 2, opts)
				}
			}
		}
	}
	grid(core.SelectiveWays, core.SelectiveSets) // Figure 4's cells
	cold := opts.Runner.Stats()
	if cold.ArtifactComputes != 4 { // 2 sides x 2 orgs x 1 app
		t.Fatalf("cold grid computed %d artifacts, want 4", cold.ArtifactComputes)
	}
	if cold.ArtifactHits != 0 {
		t.Fatalf("cold grid scored %d artifact hits, want 0", cold.ArtifactHits)
	}

	grid(core.Hybrid, core.SelectiveWays, core.SelectiveSets) // Figure 6 repeats them
	warm := opts.Runner.Stats()
	if got := warm.ArtifactHits - cold.ArtifactHits; got != 4 {
		t.Errorf("repeated cells scored %d artifact hits, want 4", got)
	}
	if got := warm.ArtifactComputes - cold.ArtifactComputes; got != 2 { // hybrid only
		t.Errorf("warm grid computed %d new artifacts, want 2 (hybrid)", got)
	}

	grid(core.SelectiveWays, core.SelectiveSets) // fully warm
	again := opts.Runner.Stats()
	if again.Submitted != warm.Submitted || again.Runs != warm.Runs {
		t.Errorf("fully warm grid submitted configs: %d -> %d submitted, %d -> %d runs",
			warm.Submitted, again.Submitted, warm.Runs, again.Runs)
	}
}

// TestSweepArtifactResumesFromStore: with a persistent store, a fresh
// runner (a new process in real use) resolves a repeated sweep from the
// artifact tier — zero submissions — and returns the identical Best.
func TestSweepArtifactResumesFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	store, err := runner.OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyArtifactOpts()
	opts.Runner = runner.New(runner.Options{Store: store})
	first := staticBest(t, "m88ksim", DSide, core.SelectiveSets, 2, opts)
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	store2, err := runner.OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	opts.Runner = runner.New(runner.Options{Store: store2})
	second := staticBest(t, "m88ksim", DSide, core.SelectiveSets, 2, opts)
	st := opts.Runner.Stats()
	if st.ArtifactStoreHits != 1 || st.Submitted != 0 || st.Runs != 0 {
		t.Errorf("resumed sweep stats = %+v, want 1 artifact store hit, 0 submitted, 0 runs", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed Best differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestCachedBestRepairsUndecodablePayload: a stored payload that no
// longer decodes must cost exactly one recompute — the fresh payload
// repairs both tiers, so later calls (and later processes) hit again.
func TestCachedBestRepairsUndecodablePayload(t *testing.T) {
	key, err := NewSweepSpec("gcc", DSide, core.SelectiveSets, 2, false, fastOpts()).ArtifactKey()
	if err != nil {
		t.Fatal(err)
	}
	want := Best{App: "gcc", Desc: "static 8K/2-way"}
	oldFormat, err := json.Marshal(want) // artifactVersion 3 stored JSON
	if err != nil {
		t.Fatal(err)
	}
	sealed := encodeBest(&want)
	// Each is valid JSON (so every Store backend keeps it) that does not
	// decode into a Best payload.
	for name, bad := range map[string][]byte{
		"not a payload": []byte("[1,2,3]"),
		"old format":    oldFormat,
		"truncated":     append(append([]byte(nil), sealed[:len(sealed)/2]...), '"'),
	} {
		store := runner.NewMemStore()
		store.RecordArtifact(key, bad)

		var computes int
		compute := func(context.Context) (Best, error) {
			computes++
			return want, nil
		}
		ctx := context.Background()
		r1 := runner.New(runner.Options{Store: store})
		got, err := cachedBest(ctx, r1, key, compute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.App != want.App || got.Desc != want.Desc {
			t.Errorf("%s: repair returned %+v, want %+v", name, got, want)
		}
		if computes != 1 {
			t.Fatalf("%s: computed %d times, want 1", name, computes)
		}
		// Same runner: the repaired in-memory tier must decode.
		if _, err := cachedBest(ctx, r1, key, compute); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Fresh runner, same store: the repaired persistent tier must decode.
		r2 := runner.New(runner.Options{Store: store})
		again, err := cachedBest(ctx, r2, key, compute)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if computes != 1 {
			t.Errorf("%s: repaired payload recomputed (computes = %d)", name, computes)
		}
		if again.Desc != want.Desc {
			t.Errorf("%s: repaired store returned %+v", name, again)
		}
	}
}

// TestSweepArtifactKeySeparatesSweeps checks the sweep key's safety
// property over a generated space of specs: apps × sides × organizations
// × strategies × L1 associativities × engines × the facade's hierarchy
// presets × sampling on and off. Specs sharing a key must run the same
// batch (the key stands in for it), distinct specs must key apart, and a
// spec built twice must key the same. Short mode keeps two apps.
func TestSweepArtifactKeySeparatesSweeps(t *testing.T) {
	apps := workload.Names()
	if testing.Short() {
		apps = apps[:2]
	}
	level := func(size, assoc int) sim.LevelSpec {
		return sim.LevelSpec{CacheSpec: sim.CacheSpec{Org: core.NonResizable,
			Geom: geometry.Geometry{SizeBytes: size, Assoc: assoc, BlockBytes: 64, SubarrayBytes: 4 << 10}}}
	}
	// BaseL2, NoL2, SmallL2, BigL2, DeepL2L3.
	hierarchies := [][]sim.LevelSpec{{level(512<<10, 4)}, nil, {level(256<<10, 4)},
		{level(1<<20, 4)}, {level(512<<10, 4), level(2<<20, 8)}}
	batches := make(map[sim.Key][sha256.Size]byte)
	specs := 0
	for _, app := range apps {
		for _, side := range []Side{DSide, ISide, L2Side} {
			for _, org := range []core.Organization{core.NonResizable, core.SelectiveWays,
				core.SelectiveSets, core.Hybrid, core.HybridMinWays} {
				for _, dynamic := range []bool{false, true} {
					for _, assoc := range []int{1, 2, 4, 8, 16} {
						for _, engine := range []sim.EngineKind{sim.OutOfOrder, sim.InOrder} {
							for _, levels := range hierarchies {
								for _, sampling := range []sim.SamplingSpec{{}, sim.DefaultSampling()} {
									opts := DefaultOptions()
									opts.Instructions = 100_000
									opts.Engine = engine
									build := func() SweepSpec {
										spec := NewSweepSpec(app, side, org, assoc, dynamic, opts)
										spec.Base.Levels = levels
										spec.Base.Sampling = sampling
										return spec
									}
									sw, err := build().Resolve()
									if err != nil {
										continue
									}
									if again, _ := build().ArtifactKey(); again != sw.key {
										t.Fatalf("%s/%v/%v/%v: spec built twice keys %v then %v", app, side, org, dynamic, sw.key, again)
									}
									h := sha256.New()
									cfgs, _ := sw.Configs()
									writeBatch(h, cfgs)
									var digest [sha256.Size]byte
									h.Sum(digest[:0])
									if prev, ok := batches[sw.key]; ok && prev != digest {
										t.Fatalf("%s/%v/%v/%v: key %v stands for two different batches", app, side, org, dynamic, sw.key)
									}
									batches[sw.key] = digest
									specs++
								}
							}
						}
					}
				}
			}
		}
	}
	if len(batches) != specs {
		t.Errorf("%d distinct specs share %d keys", specs, len(batches))
	}
	t.Logf("%d specs resolved", specs)
}

func TestBestAccessorsOnSides(t *testing.T) {
	b := Best{Side: ISide, Chosen: sim.Result{}, Base: sim.Result{}}
	// Zero results: reductions degenerate but must not panic.
	_ = b.SizeReductionPct()
	_ = b.SlowdownPct()
	b.Side = DSide
	_ = b.SizeReductionPct()
}

// TestEnqueueSweepsBatchesColdAndSkipsWarm: the plan-level batch pass
// must enqueue every distinct config of cold sweeps in one runner pass
// (shared baselines deduplicated), let gathers join that work without
// a second pass, and enqueue nothing once the sweeps' artifacts are
// warm.
func TestEnqueueSweepsBatchesColdAndSkipsWarm(t *testing.T) {
	opts := tinyArtifactOpts()
	ctx := context.Background()
	specs := []SweepSpec{
		NewSweepSpec("m88ksim", DSide, core.SelectiveSets, 2, false, opts),
		NewSweepSpec("m88ksim", ISide, core.SelectiveSets, 2, false, opts),
	}
	sweeps, err := resolveAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := EnqueueSweeps(ctx, sweeps, opts)
	if n == 0 {
		t.Fatal("cold sweeps enqueued nothing")
	}
	for _, sw := range sweeps {
		if _, err := sw.Best(ctx, opts); err != nil {
			t.Fatal(err)
		}
	}
	st := opts.Runner.Stats()
	if st.EnqueueBatches != 1 || st.Enqueued != uint64(n) {
		t.Errorf("enqueue stats = %+v, want one pass of %d configs", st, n)
	}
	if st.Runs != uint64(n) {
		t.Errorf("ran %d configs, want the %d enqueued (dedup broken?)", st.Runs, n)
	}
	// Warm: artifacts exist, so the batch pass skips everything.
	if again, _ := EnqueueSweeps(ctx, sweeps, opts); again != 0 {
		t.Errorf("warm sweeps enqueued %d configs, want 0", again)
	}
	if st := opts.Runner.Stats(); st.EnqueueBatches != 1 {
		t.Errorf("warm pass still called Enqueue: %+v", st)
	}
}

// TestL2SideSweep: the sweep machinery is hierarchy-generic — an
// L2Side spec profiles the shared L2's schedule and reports through
// the level reports; a hierarchy with no shared level is rejected.
func TestL2SideSweep(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 150_000
	opts.Runner = runner.New(runner.Options{})
	base := BaseConfig("m88ksim", 2, opts)
	best := runSweep(t, SweepSpec{App: "m88ksim", Side: L2Side,
		Org: core.SelectiveWays, Base: base}, opts)
	if best.Side != L2Side {
		t.Fatalf("side = %v", best.Side)
	}
	if best.SizeReductionPct() <= 0 {
		t.Errorf("m88ksim's L2 did not shrink: %s (%.1f%%)", best.Desc, best.SizeReductionPct())
	}
	if got := best.Chosen.L2().AvgBytes; got >= 512<<10 {
		t.Errorf("chosen L2 average %v bytes, want below full size", got)
	}
	// The L1 reports must be untouched by the L2 sweep.
	if best.Chosen.DCache.AvgBytes != 32<<10 {
		t.Errorf("d-cache perturbed: %+v", best.Chosen.DCache)
	}

	flat := base
	flat.Levels = nil
	if _, err := (SweepSpec{App: "m88ksim", Side: L2Side,
		Org: core.SelectiveWays, Base: flat}).Resolve(); err == nil {
		t.Error("L2 sweep over an empty hierarchy accepted")
	}
}

// TestCombinedBestsAppliesEverySide: the generalized combined run holds
// each profiled winner — including the L2's — in one simulation.
func TestCombinedBestsAppliesEverySide(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 150_000
	opts.Runner = runner.New(runner.Options{})
	base := BaseConfig("m88ksim", 2, opts)
	d := runSweep(t, SweepSpec{App: "m88ksim", Side: DSide,
		Org: core.SelectiveSets, Base: base}, opts)
	l2 := runSweep(t, SweepSpec{App: "m88ksim", Side: L2Side,
		Org: core.SelectiveWays, Base: base}, opts)
	comb, err := CombinedBests(context.Background(), base, []Best{d, l2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if comb.Chosen.DCache.AvgBytes >= 32<<10 {
		t.Errorf("combined run left the d-cache at full size: %+v", comb.Chosen.DCache)
	}
	if comb.Chosen.L2().AvgBytes >= 512<<10 {
		t.Errorf("combined run left the L2 at full size: %+v", comb.Chosen.L2())
	}
	if comb.EDPReductionPct() <= 0 {
		t.Errorf("combined resizing lost EDP: %.1f%%", comb.EDPReductionPct())
	}
	// SizeReductionPct computes over the actually resized sides (d + L2,
	// recorded in Resized) — the capacity-dominant L2 shrink must show,
	// not be averaged away against the never-resized i-cache.
	if got := comb.SizeReductionPct(); got <= 50 {
		t.Errorf("combined size reduction %.1f%% ignores the resized L2", got)
	}
	if _, err := CombinedBests(context.Background(), base, nil, opts); err == nil {
		t.Error("empty parts accepted")
	}
}

// TestApplySideL2PreservesLevelKnobs: replacing the L2's cache core
// must keep the base level's structural knobs AND its ablation
// switches, so an ablated-base sweep compares like against like.
func TestApplySideL2PreservesLevelKnobs(t *testing.T) {
	cfg := sim.Default("gcc")
	cfg.Levels[0].AblationFreeFlush = true
	cfg.Levels[0].Precharge = sim.PrechargeFull
	cfg.Levels[0].MSHREntries = 4
	geom := cfg.Levels[0].Geom
	applySide(&cfg, L2Side, sim.CacheSpec{Geom: geom, Org: core.SelectiveWays,
		Policy: sim.PolicySpec{Kind: sim.PolicyStatic, StaticIndex: 1}})
	l := cfg.Levels[0]
	if l.Org != core.SelectiveWays || l.Policy.Kind != sim.PolicyStatic {
		t.Errorf("cache core not replaced: %+v", l)
	}
	if !l.AblationFreeFlush || l.Precharge != sim.PrechargeFull || l.MSHREntries != 4 {
		t.Errorf("level knobs dropped: %+v", l)
	}
}

// TestSweepSpecArtifactKey: stable across calls, distinct per sweep,
// and erroring for an unsweepable spec.
func TestSweepSpecArtifactKey(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	st := SweepSpec{App: "gcc", Side: DSide, Org: core.SelectiveSets,
		Base: BaseConfig("gcc", 2, opts)}
	a, err := st.ArtifactKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.ArtifactKey()
	if err != nil || a != b {
		t.Fatalf("artifact key unstable: %v vs %v (%v)", a, b, err)
	}
	dyn := st
	dyn.Dynamic = true
	if k, _ := dyn.ArtifactKey(); k == a {
		t.Error("static and dynamic sweeps share an artifact key")
	}
	l2 := st
	l2.Side = L2Side
	l2.Org = core.SelectiveWays
	if k, _ := l2.ArtifactKey(); k == a {
		t.Error("d-cache and L2 sweeps share an artifact key")
	}
	bad := l2
	bad.Base.Levels = nil
	if _, err := bad.ArtifactKey(); err == nil {
		t.Error("L2 sweep over an empty hierarchy produced a key")
	}
	// Resolve builds no schedule, but still rejects every spec a
	// schedule build would: an unknown organization and a geometry the
	// resized cache cannot have.
	unknown := st
	unknown.Org = core.Organization(42)
	if _, err := unknown.ArtifactKey(); err == nil {
		t.Error("sweep of an unknown organization produced a key")
	}
	odd := st
	odd.Base.DCache.Geom.Assoc = 3
	if _, err := odd.ArtifactKey(); err == nil {
		t.Error("sweep over a 3-way 32K d-cache produced a key")
	}
}

// TestBaselineSpecKeysMatchPlainSpecs: a spec made from a Baseline
// fingerprints exactly as a plain spec over the same config, and one
// whose Base was edited afterwards fingerprints the edited config — a
// baseline's hash never stands in for a config it was not computed
// for. Nor do writes through the caller's Levels reach the baseline.
func TestBaselineSpecKeysMatchPlainSpecs(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	cfg := BaseConfig("gcc", 2, opts)
	b := NewBaseline(cfg)
	key := func(s SweepSpec) sim.Key {
		t.Helper()
		k, err := s.ArtifactKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	plain := SweepSpec{App: "gcc", Side: L2Side, Org: core.SelectiveWays, Dynamic: true, Base: cfg}
	made := b.Spec("gcc", L2Side, core.SelectiveWays, true)
	if key(made) != key(plain) {
		t.Fatal("a spec made from a Baseline fingerprints differently from a plain spec over its config")
	}

	edited, plainEdited := made, plain
	edited.Base.Sampling = sim.DefaultSampling()
	plainEdited.Base.Sampling = sim.DefaultSampling()
	if key(edited) != key(plainEdited) || key(edited) == key(made) {
		t.Error("a spec whose Base was edited kept its baseline's fingerprint")
	}
	edited = made
	edited.Base.Levels = slices.Clone(edited.Base.Levels)
	edited.Base.Levels[0].Geom.Assoc = 8
	if key(edited) == key(made) {
		t.Error("a spec whose hierarchy was edited kept its baseline's fingerprint")
	}

	cfg.Levels[0].Geom.Assoc = 8 // the caller's slice, not the baseline's
	after := b.Spec("gcc", L2Side, core.SelectiveWays, true)
	fresh := SweepSpec{App: after.App, Side: after.Side, Org: after.Org, Dynamic: after.Dynamic,
		Base: after.Base}
	fresh.Base.Levels = slices.Clone(after.Base.Levels)
	if after.Base.Levels[0].Geom.Assoc == 8 || key(after) != key(fresh) {
		t.Error("a write through the caller's Levels reached the Baseline")
	}
	if n := testing.AllocsPerRun(20, func() { key(made) }); n != 0 {
		t.Errorf("fingerprinting a spec made from a Baseline makes %v allocations, want 0", n)
	}
}
