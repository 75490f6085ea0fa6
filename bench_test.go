// Benchmark harness: one testing.B benchmark per table/figure of the
// paper, plus ablation benchmarks for the design decisions listed in
// DESIGN.md §4.
//
// The raw-throughput and figure benchmarks live in internal/benchsuite,
// shared with cmd/bench (which records them into BENCH_<n>.json); the
// thin Benchmark* shells here keep them runnable through `go test
// -bench` with identical semantics. Each figure benchmark regenerates
// its experiment at reduced fidelity (three representative apps, 400K
// instructions) so the whole suite finishes in minutes; cmd/figures
// runs the same drivers at full fidelity. Reported custom metrics
// (edp_red_pct and friends) carry the experiment's headline result so
// regressions in *results*, not just speed, show up in benchmark diffs.
// The ablation and orchestration benchmarks below assert properties
// (memo hits, enqueue passes) and stay test-only.
package resizecache_test

import (
	"context"
	"testing"
	"time"

	"resizecache"
	"resizecache/figures"
	"resizecache/internal/benchsuite"
	"resizecache/internal/core"
	"resizecache/internal/experiment"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// benchApps mirrors benchsuite.BenchApps for the test-only benchmarks.
var benchApps = benchsuite.BenchApps

func benchFigOpts() figures.Options { return benchsuite.FigOpts() }

func benchOpts() experiment.Options {
	o := experiment.DefaultOptions()
	o.Instructions = 400_000
	o.Apps = benchApps
	return o
}

func BenchmarkTable1Hybrid(b *testing.B)            { benchsuite.Table1Hybrid(b) }
func BenchmarkFigure4Organizations(b *testing.B)    { benchsuite.Figure4Organizations(b) }
func BenchmarkFigure5PerApp(b *testing.B)           { benchsuite.Figure5PerApp(b) }
func BenchmarkFigure6Hybrid(b *testing.B)           { benchsuite.Figure6Hybrid(b) }
func BenchmarkFigure7DCacheStrategies(b *testing.B) { benchsuite.Figure7DCacheStrategies(b) }
func BenchmarkFigure8ICacheStrategies(b *testing.B) { benchsuite.Figure8ICacheStrategies(b) }
func BenchmarkFigure9DualResize(b *testing.B)       { benchsuite.Figure9DualResize(b) }
func BenchmarkFigureL2Resizing(b *testing.B)        { benchsuite.FigureL2Resizing(b) }

// Raw-throughput benchmarks (simulator engineering, not paper results).

func BenchmarkSimRun(b *testing.B)              { benchsuite.SimRun(b) }
func BenchmarkSimSampled(b *testing.B)          { benchsuite.SimSampled(b) }
func BenchmarkSimSampledStreams(b *testing.B)   { benchsuite.SimSampledStreams(b) }
func BenchmarkSimRunDeepHierarchy(b *testing.B) { benchsuite.SimRunDeepHierarchy(b) }
func BenchmarkSimInOrder(b *testing.B)          { benchsuite.SimInOrder(b) }
func BenchmarkSweepGang(b *testing.B)           { benchsuite.SweepGang(b) }
func BenchmarkSweepDynamic(b *testing.B)        { benchsuite.SweepDynamic(b) }
func BenchmarkSweepDynamicL2(b *testing.B)      { benchsuite.SweepDynamicL2(b) }
func BenchmarkWorkloadGenerator(b *testing.B)   { benchsuite.WorkloadGenerator(b) }
func BenchmarkConfigKey(b *testing.B)           { benchsuite.ConfigKey(b) }
func BenchmarkSweepKey(b *testing.B)            { benchsuite.SweepKey(b) }
func BenchmarkWarmSimulate(b *testing.B)        { benchsuite.WarmSimulate(b) }
func BenchmarkWarmPlanArtifact(b *testing.B)    { benchsuite.WarmPlanArtifact(b) }
func BenchmarkColdPlan(b *testing.B)            { benchsuite.ColdPlan(b) }
func BenchmarkNetStoreLookup(b *testing.B)      { benchsuite.NetStoreLookup(b) }

// BenchmarkPlanBatchVsSequential quantifies the tentpole property of
// the batch API: one plan over N scenarios submits its profiling sweeps
// in one batched enqueue pass, where N sequential Simulate calls pay
// one enqueue pass per sweep (each sweep's gather enqueues its own
// batch) and drain the pool between scenarios. Both paths run the
// identical scenario set on cold
// sessions; the reported metrics carry the enqueue-pass counts and wall
// times.
func BenchmarkPlanBatchVsSequential(b *testing.B) {
	scenarios := make([]resizecache.Scenario, 0, len(benchApps))
	for _, app := range benchApps {
		scenarios = append(scenarios, resizecache.Scenario{
			Benchmark:    app,
			Organization: resizecache.SelectiveSets,
			Sides:        resizecache.DOnly,
			Instructions: 400_000,
		})
	}
	plan, err := resizecache.PlanOf(scenarios...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var planNS, seqNS, planPasses, seqPasses float64
	for i := 0; i < b.N; i++ {
		batch := resizecache.NewSession()
		start := time.Now()
		if _, err := resizecache.Collect(batch.Run(ctx, plan)); err != nil {
			b.Fatal(err)
		}
		planNS = float64(time.Since(start).Nanoseconds())

		seq := resizecache.NewSession()
		start = time.Now()
		for _, sc := range scenarios {
			if _, err := seq.Simulate(sc); err != nil {
				b.Fatal(err)
			}
		}
		seqNS = float64(time.Since(start).Nanoseconds())

		bst, sst := batch.Stats(), seq.Stats()
		if bst.Runs != sst.Runs {
			b.Fatalf("paths ran different work: %d vs %d sims", bst.Runs, sst.Runs)
		}
		if bst.EnqueueBatches >= sst.EnqueueBatches {
			b.Fatalf("plan run did not reduce enqueue passes: %d vs %d",
				bst.EnqueueBatches, sst.EnqueueBatches)
		}
		planPasses, seqPasses = float64(bst.EnqueueBatches), float64(sst.EnqueueBatches)
	}
	b.ReportMetric(planNS, "plan_ns")
	b.ReportMetric(seqNS, "sequential_ns")
	b.ReportMetric(planPasses, "plan_enqueue_passes")
	b.ReportMetric(seqPasses, "sequential_enqueue_passes")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §4).
// ---------------------------------------------------------------------

// staticSetsRun runs m88ksim with a statically downsized selective-sets
// d-cache, with the given ablation switches, and returns the EDP
// reduction versus the non-resizable baseline.
func staticSetsRun(b *testing.B, fullPrecharge, freeFlush bool, dynamic bool) float64 {
	b.Helper()
	base := sim.Default("m88ksim")
	base.Instructions = 400_000
	bres, err := sim.Run(base)
	if err != nil {
		b.Fatal(err)
	}
	cut := base
	cut.DCache.Org = core.SelectiveSets
	if dynamic {
		cut.DCache.Policy = sim.PolicySpec{Kind: sim.PolicyDynamic,
			Interval: 16384, MissBound: 163, SizeBoundBytes: 4 << 10}
	} else {
		cut.DCache.Policy = sim.PolicySpec{Kind: sim.PolicyStatic, StaticIndex: 3} // 4K
	}
	cut.DCache.AblationFullPrecharge = fullPrecharge
	cut.DCache.AblationFreeFlush = freeFlush
	cres, err := sim.Run(cut)
	if err != nil {
		b.Fatal(err)
	}
	return cres.EDP.ReductionPct(bres.EDP)
}

// BenchmarkAblationFullPrecharge quantifies design decision 1: with all
// subarrays precharging regardless of masks, resizing saves (almost)
// nothing — the enabled-subarray accounting is where the benefit lives.
func BenchmarkAblationFullPrecharge(b *testing.B) {
	var withMasks, without float64
	for i := 0; i < b.N; i++ {
		withMasks = staticSetsRun(b, false, false, false)
		without = staticSetsRun(b, true, false, false)
	}
	b.ReportMetric(withMasks, "masked_edp_red_pct")
	b.ReportMetric(without, "fullprecharge_edp_red_pct")
}

// BenchmarkAblationFreeFlush quantifies design decision 3: the cost of
// selective-sets' flush semantics under dynamic resizing. su2cor's
// periodic working set makes the controller resize repeatedly, so every
// transition pays (or, ablated, skips) the flush traffic.
func BenchmarkAblationFreeFlush(b *testing.B) {
	run := func(freeFlush bool) float64 {
		base := sim.Default("su2cor")
		base.Instructions = 400_000
		bres, err := sim.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		cut := base
		cut.DCache.Org = core.SelectiveSets
		cut.DCache.Policy = sim.PolicySpec{Kind: sim.PolicyDynamic,
			Interval: 16384, MissBound: 655, SizeBoundBytes: 8 << 10}
		cut.DCache.AblationFreeFlush = freeFlush
		cres, err := sim.Run(cut)
		if err != nil {
			b.Fatal(err)
		}
		return cres.EDP.ReductionPct(bres.EDP)
	}
	var real, free float64
	for i := 0; i < b.N; i++ {
		real = run(false)
		free = run(true)
	}
	b.ReportMetric(real, "realflush_edp_red_pct")
	b.ReportMetric(free, "freeflush_edp_red_pct")
}

// staticBest runs the static profiling sweep for one (app, side, org,
// assoc) cell on r.
func staticBest(b *testing.B, r *runner.Runner, app string, side experiment.Side, org core.Organization, assoc int, opts experiment.Options) experiment.Best {
	b.Helper()
	sw, err := experiment.NewSweepSpec(app, side, org, assoc, false, opts).Resolve()
	if err != nil {
		b.Fatal(err)
	}
	best, err := sw.Best(context.Background(), r)
	if err != nil {
		b.Fatal(err)
	}
	return best
}

// BenchmarkAblationHybridTieBreak quantifies design decision 4: Table 1's
// prefer-highest-associativity rule versus preferring the fewest ways.
func BenchmarkAblationHybridTieBreak(b *testing.B) {
	opts := benchOpts()
	r := runner.New(runner.Options{})
	var maxAssoc, minWays float64
	for i := 0; i < b.N; i++ {
		ba := staticBest(b, r, "vpr", experiment.DSide, core.Hybrid, 4, opts)
		bw := staticBest(b, r, "vpr", experiment.DSide, core.HybridMinWays, 4, opts)
		maxAssoc = ba.EDPReductionPct()
		minWays = bw.EDPReductionPct()
	}
	b.ReportMetric(maxAssoc, "maxassoc_edp_red_pct")
	b.ReportMetric(minWays, "minways_edp_red_pct")
}

// BenchmarkAblationNoSizeBound quantifies design decision 5: removing the
// dynamic controller's thrash guard. ammp's working set fits 4K but not
// 2K, so an unbounded controller oscillates at the bottom of the
// schedule, flushing and refilling every other interval.
func BenchmarkAblationNoSizeBound(b *testing.B) {
	run := func(bound int) float64 {
		base := sim.Default("ammp")
		base.Engine = sim.InOrder
		base.Instructions = 400_000
		bres, err := sim.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		cut := base
		cut.DCache.Org = core.SelectiveSets
		cut.DCache.Policy = sim.PolicySpec{Kind: sim.PolicyDynamic,
			Interval: 16384, MissBound: 163, SizeBoundBytes: bound}
		cres, err := sim.Run(cut)
		if err != nil {
			b.Fatal(err)
		}
		return cres.EDP.ReductionPct(bres.EDP)
	}
	var bounded, unbounded float64
	for i := 0; i < b.N; i++ {
		bounded = run(8 << 10)
		unbounded = run(0)
	}
	b.ReportMetric(bounded, "sizebound_edp_red_pct")
	b.ReportMetric(unbounded, "nobound_edp_red_pct")
}

// ---------------------------------------------------------------------
// Run-orchestration (internal/runner) memoization.
// ---------------------------------------------------------------------

// BenchmarkRunnerMemoization quantifies the tentpole property of the
// run-orchestration layer: a repeated sweep resolves from the memo store
// instead of re-simulating. Each iteration profiles one app across all
// three organizations on a cold runner — the three static sweeps
// share their non-resizable baseline, so even the cold pass must score
// memo hits — then repeats the identical sweep warm, which must complete
// with zero fresh simulations and far lower wall time.
func BenchmarkRunnerMemoization(b *testing.B) {
	orgs := []core.Organization{core.SelectiveWays, core.SelectiveSets, core.Hybrid}
	var coldNS, warmNS, hits, runs float64
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Apps = []string{"m88ksim"}
		r := runner.New(runner.Options{})
		sweep := func() {
			for _, org := range orgs {
				staticBest(b, r, "m88ksim", experiment.DSide, org, 4, opts)
			}
		}
		start := time.Now()
		sweep()
		cold := time.Since(start)
		afterCold := r.Stats()
		if afterCold.Hits() < 1 {
			b.Fatalf("cold sweep scored no memo hits: %+v", afterCold)
		}
		start = time.Now()
		sweep()
		warm := time.Since(start)
		st := r.Stats()
		if st.Runs != afterCold.Runs {
			b.Fatalf("warm sweep re-simulated: %d -> %d runs", afterCold.Runs, st.Runs)
		}
		if warm >= cold {
			b.Fatalf("warm sweep (%v) not faster than cold (%v)", warm, cold)
		}
		coldNS = float64(cold.Nanoseconds())
		warmNS = float64(warm.Nanoseconds())
		hits = float64(st.Hits())
		runs = float64(st.Runs)
	}
	b.ReportMetric(coldNS, "cold_ns")
	b.ReportMetric(warmNS, "warm_ns")
	b.ReportMetric(coldNS/warmNS, "speedup_x")
	b.ReportMetric(hits, "memo_hits")
	b.ReportMetric(runs, "sims_run")
}

// BenchmarkArtifactCacheWarmFigures quantifies the sweep-artifact cache:
// rendering one figure warms the next. Each iteration regenerates
// Figure 4 on a cold runner, then Figure 6 — whose grid repeats every
// (ways, sets) cell of Figure 4 — which must resolve those cells as
// whole-sweep artifact hits, and finally Figure 4 again, which must
// resolve every Best grid from the artifact cache with zero new
// simulations (zero new submissions, even: warm sweeps never reach the
// per-config layer).
func BenchmarkArtifactCacheWarmFigures(b *testing.B) {
	ctx := context.Background()
	var coldNS, warmNS, crossHits, warmHits float64
	for i := 0; i < b.N; i++ {
		s := resizecache.NewSession()

		start := time.Now()
		if _, err := figures.Figure4(ctx, s, benchFigOpts()); err != nil {
			b.Fatal(err)
		}
		cold := time.Since(start)
		afterFig4 := s.Stats()
		if afterFig4.ArtifactComputes == 0 {
			b.Fatalf("cold figure computed no sweep artifacts: %+v", afterFig4)
		}

		if _, err := figures.Figure6(ctx, s, benchFigOpts()); err != nil {
			b.Fatal(err)
		}
		afterFig6 := s.Stats()
		if afterFig6.ArtifactHits == afterFig4.ArtifactHits {
			b.Fatalf("figure 6 reused no sweep artifacts from figure 4: %+v", afterFig6)
		}

		start = time.Now()
		if _, err := figures.Figure4(ctx, s, benchFigOpts()); err != nil {
			b.Fatal(err)
		}
		warm := time.Since(start)
		st := s.Stats()
		if st.Runs != afterFig6.Runs {
			b.Fatalf("warm figure re-simulated: %d -> %d runs", afterFig6.Runs, st.Runs)
		}
		if st.Submitted != afterFig6.Submitted {
			b.Fatalf("warm figure reached the per-config layer: %d -> %d submitted",
				afterFig6.Submitted, st.Submitted)
		}
		coldNS = float64(cold.Nanoseconds())
		warmNS = float64(warm.Nanoseconds())
		crossHits = float64(afterFig6.ArtifactHits - afterFig4.ArtifactHits)
		warmHits = float64(st.ArtifactHits - afterFig6.ArtifactHits)
	}
	b.ReportMetric(coldNS, "cold_ns")
	b.ReportMetric(warmNS, "warm_ns")
	b.ReportMetric(coldNS/warmNS, "speedup_x")
	b.ReportMetric(crossHits, "crossfigure_artifact_hits")
	b.ReportMetric(warmHits, "warmfigure_artifact_hits")
}
