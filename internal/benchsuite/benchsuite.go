// Package benchsuite defines the repository's performance benchmarks as
// plain functions over *testing.B, shared by two harnesses: the go-test
// benchmark harness (bench_test.go wraps each function in a standard
// Benchmark* shell) and the cmd/bench driver, which runs the same
// functions through testing.Benchmark and records a machine-readable
// BENCH_<n>.json so the repository has a performance trajectory instead
// of folklore.
//
// Two tiers:
//
//   - raw-throughput benchmarks (Short=true) time the simulator's inner
//     loop itself — one sim.Run, the workload generator — and carry an
//     instrs/op metric so ns/instr and instrs/sec are derivable;
//   - figure benchmarks (Short=false) regenerate the paper's experiments
//     at reduced fidelity end to end and report each experiment's
//     headline result metrics (edp_red_pct and friends), so a
//     performance diff also shows result regressions.
package benchsuite

import (
	"context"
	"flag"
	"path/filepath"
	"testing"
	"time"

	"resizecache"
	"resizecache/figures"
	"resizecache/internal/core"
	"resizecache/internal/experiment"
	"resizecache/internal/geometry"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/simd"
	"resizecache/internal/workload"
)

// BenchApps is the representative app slice the reduced-fidelity
// benchmarks run: a small-working-set app, a conflict-bound app, and a
// phase-varying app.
var BenchApps = []string{"m88ksim", "vpr", "su2cor"}

// FigOpts returns the reduced-fidelity figure options every figure
// benchmark uses.
func FigOpts() figures.Options {
	return figures.Options{Instructions: 400_000, Apps: BenchApps}
}

// Bench is one suite entry.
type Bench struct {
	Name string
	// Short marks the raw-throughput tier that cmd/bench -short runs;
	// figure benchmarks are minutes-scale and excluded from smoke runs.
	Short bool
	F     func(b *testing.B)
}

// All returns the suite in reporting order.
func All() []Bench {
	return []Bench{
		{Name: "SimRun", Short: true, F: SimRun},
		{Name: "SimSampled", Short: true, F: SimSampled},
		{Name: "SimSampledStreams", Short: true, F: SimSampledStreams},
		{Name: "SimRunDeepHierarchy", Short: true, F: SimRunDeepHierarchy},
		{Name: "SimInOrder", Short: true, F: SimInOrder},
		{Name: "SweepGang", Short: true, F: SweepGang},
		{Name: "SweepDynamic", Short: true, F: SweepDynamic},
		{Name: "SweepDynamicL2", Short: true, F: SweepDynamicL2},
		{Name: "WorkloadGenerator", Short: true, F: WorkloadGenerator},
		{Name: "ConfigKey", Short: true, F: ConfigKey},
		{Name: "SweepKey", Short: true, F: SweepKey},
		{Name: "WarmSimulate", Short: true, F: WarmSimulate},
		{Name: "WarmPlanArtifact", Short: true, F: WarmPlanArtifact},
		{Name: "ColdPlan", Short: true, F: ColdPlan},
		{Name: "NetStoreLookup", Short: true, F: NetStoreLookup},
		{Name: "Table1Hybrid", F: Table1Hybrid},
		{Name: "Figure4Organizations", F: Figure4Organizations},
		{Name: "Figure5PerApp", F: Figure5PerApp},
		{Name: "Figure6Hybrid", F: Figure6Hybrid},
		{Name: "Figure7DCacheStrategies", F: Figure7DCacheStrategies},
		{Name: "Figure8ICacheStrategies", F: Figure8ICacheStrategies},
		{Name: "Figure9DualResize", F: Figure9DualResize},
		{Name: "FigureL2Resizing", F: FigureL2Resizing},
	}
}

// ---------------------------------------------------------------------
// Raw-throughput benchmarks (simulator engineering, not paper results).
// ---------------------------------------------------------------------

// SimRun is the simulator's hot path on the base config. The
// table-driven per-access path (precomputed energy tables, hoisted
// geometry) is accountable to this number.
func SimRun(b *testing.B) {
	cfg := sim.Default("gcc")
	cfg.Instructions = 200_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Instructions), "instrs/op")
}

// SimRunDeepHierarchy is the same workload on an L2+L3 stack — the
// hierarchy loop's cost scales with levels, not with a hard-wired chain.
func SimRunDeepHierarchy(b *testing.B) {
	cfg := sim.Default("gcc")
	cfg.Instructions = 200_000
	cfg.Levels = append(cfg.Levels, sim.LevelSpec{CacheSpec: sim.CacheSpec{
		Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
		Org:  core.NonResizable,
	}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Instructions), "instrs/op")
}

// SimInOrder times the latency-exposing engine on the base config.
func SimInOrder(b *testing.B) {
	cfg := sim.Default("gcc")
	cfg.Engine = sim.InOrder
	cfg.Instructions = 200_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Instructions), "instrs/op")
}

// SimSampled times interval-sampled execution of exactly the SimRun
// workload (the default sampling schedule, warmup checkpointed through
// an in-memory store as the runner does) and reports sampled_speedup_x:
// the multiplier over a fully detailed sim.Run of the same config,
// measured untimed each invocation. The first iteration computes and
// records the warmup checkpoint; later iterations restore it, exactly
// the steady state of a design-space sweep. edp_relse_pct reports the
// estimate's own error bar (one relative standard error, in percent).
func SimSampled(b *testing.B) {
	full := sim.Default("gcc")
	full.Instructions = 200_000
	soloStart := time.Now()
	if _, err := sim.Run(full); err != nil {
		b.Fatal(err)
	}
	soloNs := float64(time.Since(soloStart).Nanoseconds())

	cfg := full
	cfg.Sampling = sim.DefaultSampling()
	store := runner.NewMemStore()
	var last sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	sampledStart := time.Now()
	for i := 0; i < b.N; i++ {
		res, _, err := sim.RunWithCheckpoints(cfg, store)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	sampledNs := float64(time.Since(sampledStart).Nanoseconds()) / float64(b.N)
	if sampledNs > 0 {
		b.ReportMetric(soloNs/sampledNs, "sampled_speedup_x")
	}
	if last.Sample != nil {
		b.ReportMetric(100*last.Sample.EDPRelStdErr, "edp_relse_pct")
	}
	b.ReportMetric(float64(cfg.Instructions), "instrs/op")
}

// SimSampledStreams times an 8-member sampled gang at 250K
// instructions (the default sampling schedule) replaying a warm
// sim.Streams memo, its warmup checkpoint in an in-memory store: the
// steady state of a sampled design-space sweep, where every gang after
// a stream's second replays its recording. replay_speedup_x is the
// multiplier over the same gang on a live generator, averaged over
// three untimed runs each invocation.
func SimSampledStreams(b *testing.B) {
	cfgs := SweepGangConfigs()
	for i := range cfgs {
		cfgs[i].Instructions = 250_000
		cfgs[i].Sampling = sim.DefaultSampling()
	}
	// A memo records a stream on its second request; the first saves
	// the warmup checkpoint every later run restores.
	store := runner.NewMemStore()
	streams := sim.NewStreams(1)
	for i := 0; i < 2; i++ {
		if _, _, err := streams.RunGang(cfgs, store); err != nil {
			b.Fatal(err)
		}
	}
	const liveRuns = 3
	var live *sim.Streams
	liveStart := time.Now()
	for i := 0; i < liveRuns; i++ {
		if _, _, err := live.RunGang(cfgs, store); err != nil {
			b.Fatal(err)
		}
	}
	liveNs := float64(time.Since(liveStart).Nanoseconds()) / liveRuns

	b.ReportAllocs()
	b.ResetTimer()
	replayStart := time.Now()
	for i := 0; i < b.N; i++ {
		if _, _, err := streams.RunGang(cfgs, store); err != nil {
			b.Fatal(err)
		}
	}
	replayNs := float64(time.Since(replayStart).Nanoseconds()) / float64(b.N)
	if replayNs > 0 {
		b.ReportMetric(liveNs/replayNs, "replay_speedup_x")
	}
	b.ReportMetric(float64(len(cfgs))*float64(cfgs[0].Instructions), "instrs/op")
}

// SweepGangConfigs returns the 8-configuration same-benchmark sweep the
// gang benchmark measures: one benchmark's d-cache design points (four
// capacities at two associativities), all sharing the simulation
// front-end.
func SweepGangConfigs() []sim.Config {
	var cfgs []sim.Config
	for _, assoc := range []int{2, 4} {
		for _, kb := range []int{8, 16, 32, 64} {
			cfg := sim.Default("gcc")
			cfg.Instructions = 200_000
			cfg.DCache.Geom.SizeBytes = kb << 10
			cfg.DCache.Geom.Assoc = assoc
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// SweepGang times the 8-config sweep through one gang pass
// (sim.RunGang) and reports gang_speedup_x: the multiplier over running
// the same eight configs as independent sim.Runs (measured untimed each
// invocation). This is the one-pass-sweep headline number; instrs/op
// counts all eight members' instructions, so instrs/sec here is
// sweep-cell throughput.
func SweepGang(b *testing.B) {
	cfgs := SweepGangConfigs()
	soloStart := time.Now()
	for _, cfg := range cfgs {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	soloNs := float64(time.Since(soloStart).Nanoseconds())

	b.ReportAllocs()
	b.ResetTimer()
	gangStart := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunGang(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	gangNs := float64(time.Since(gangStart).Nanoseconds()) / float64(b.N)
	if gangNs > 0 {
		b.ReportMetric(soloNs/gangNs, "gang_speedup_x")
	}
	b.ReportMetric(float64(len(cfgs))*float64(cfgs[0].Instructions), "instrs/op")
}

// SweepDynamic times the cold batch of WarmSweepSpec — the baseline
// and 210 dynamic-controller candidates — through one sim.RunGang, as
// the runner would run it were its gang size unbounded. Candidates
// that differ only in their thresholds share one machine until their
// controllers disagree, so the cost follows the distinct decision
// trajectories, not the candidate count. configs/op counts the batch.
func SweepDynamic(b *testing.B) {
	sw, err := WarmSweepSpec().Resolve()
	if err != nil {
		b.Fatal(err)
	}
	cfgs, _ := sw.Configs()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sim.RunGang(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs/op")
}

// SweepDynamicL2 times gcc's dynamic selective-ways L2 sweep batch at
// 200K instructions — the baseline and 120 controller candidates —
// through one sim.RunGang. The shared L2 can see three accesses in one
// instruction, so this is the batch that measures forks of a shared
// level's machine. configs/op counts the batch.
func SweepDynamicL2(b *testing.B) {
	opts := experiment.DefaultOptions()
	opts.Instructions = 200_000
	sw, err := experiment.NewSweepSpec("gcc", experiment.L2Side, core.SelectiveWays, 2, true, opts).Resolve()
	if err != nil {
		b.Fatal(err)
	}
	cfgs, _ := sw.Configs()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sim.RunGang(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs/op")
}

// WorkloadGenerator times event synthesis alone.
func WorkloadGenerator(b *testing.B) {
	gen := workload.NewGenerator(workload.MustGet("gcc"))
	var ev workload.Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !gen.Next(&ev) {
			gen = workload.NewGenerator(workload.MustGet("gcc"))
		}
	}
}

// ---------------------------------------------------------------------
// Warm-path benchmarks: what a request costs when every simulation and
// every sweep is already cached — fingerprinting, decoding, memo hits.
// ---------------------------------------------------------------------

// ConfigKey times one sim.Config.Key fingerprint of the base config,
// the unit every memo lookup and sweep fingerprint is built from.
func ConfigKey(b *testing.B) {
	cfg := sim.Default("gcc")
	b.ReportAllocs()
	for b.Loop() {
		cfg.Key()
	}
}

// WarmSweepSpec is the largest sweep of the benchmark grid: a dynamic
// hybrid d-cache sweep, 211 configs (the baseline and 210 candidates).
func WarmSweepSpec() experiment.SweepSpec {
	opts := experiment.DefaultOptions()
	opts.Instructions = 40_000
	return experiment.NewSweepSpec("vpr", experiment.DSide, core.Hybrid, 2, true, opts)
}

// SweepKey times the artifact fingerprint of WarmSweepSpec — what a
// warm request pays per sweep before its cached winner is decoded. The
// key hashes the sweep's definition, so its cost does not grow with the
// 211 configs the sweep runs.
func SweepKey(b *testing.B) {
	spec := WarmSweepSpec()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := spec.ArtifactKey(); err != nil {
			b.Fatal(err)
		}
	}
}

// WarmSimulate times a warm Session.Simulate of a dynamic both-sides
// scenario: zero simulations, two sweep fingerprints, two cached
// winners decoded and one memo hit for the combined run. The
// untimed cold run before the loop warms the session.
func WarmSimulate(b *testing.B) {
	s := resizecache.NewSession()
	sc := resizecache.Scenario{Benchmark: "vpr", Organization: resizecache.Hybrid,
		Strategy: resizecache.Dynamic, Sides: resizecache.BothSides, Instructions: 20_000}
	if _, err := s.Simulate(sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Simulate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// PlanGrid is the 108-scenario grid the plan benchmarks run — the
// BenchApps × {ways, sets, hybrid} × {static, dynamic} × {d, i, both}
// × {out-of-order, in-order} design space at 40K instructions, the grid
// of perfbench's sweep workloads.
func PlanGrid() resizecache.Grid {
	return resizecache.Grid{
		Benchmarks:    BenchApps,
		Organizations: []resizecache.Organization{resizecache.SelectiveWays, resizecache.SelectiveSets, resizecache.Hybrid},
		Strategies:    []resizecache.Strategy{resizecache.Static, resizecache.Dynamic},
		Sides:         []resizecache.Sides{resizecache.DOnly, resizecache.IOnly, resizecache.BothSides},
		Engines:       []resizecache.Engine{resizecache.OutOfOrderEngine, resizecache.InOrderEngine},
		Instructions:  40_000,
	}
}

// ColdPlan times one cold PlanGrid plan on a fresh two-worker session
// over a MemStore, the way perfbench's sweep-cold workload runs a
// request: every profiling sweep, baseline and combined run simulates.
// Under go test -short the grid shrinks to its first app's 36
// scenarios.
func ColdPlan(b *testing.B) {
	g := PlanGrid()
	if flag.Lookup("test.short") != nil && testing.Short() {
		g.Benchmarks = g.Benchmarks[:1]
	}
	plan, err := g.Expand()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		s, err := resizecache.NewSessionWith(resizecache.SessionOptions{Workers: 2, Store: runner.NewMemStore()})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := resizecache.Collect(s.Run(ctx, plan)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.Len()), "scenarios/op")
}

// WarmPlanArtifact times a warm Session.Artifact hit for the PlanGrid
// plan, which is what a warm figure render pays before decoding its
// rows: the plan fingerprint over every scenario's sweeps, six distinct
// baselines among them, and one memo hit. The payload is a stub and
// decode a no-op, so nothing simulates or decodes.
func WarmPlanArtifact(b *testing.B) {
	plan, err := PlanGrid().Expand()
	if err != nil {
		b.Fatal(err)
	}
	s := resizecache.NewSession()
	ctx := context.Background()
	decode := func([]byte) error { return nil }
	compute := func(context.Context) ([]byte, error) { return []byte(`{"rows":[]}`), nil }
	if err := s.Artifact(ctx, "bench", 1, plan, decode, compute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := s.Artifact(ctx, "bench", 1, plan, decode, compute); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.Len()), "scenarios/op")
}

// NetStoreLookup times one stored-result lookup through a simd daemon
// serving on a unix socket in this process: the request frame, the
// daemon's store lookup, and the reply whose sealed binary StoredResult
// NetStore decodes. The stored result is a real simulation's.
func NetStoreLookup(b *testing.B) {
	cfg := sim.Default("gcc")
	cfg.Instructions = 20_000
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	store := runner.NewMemStore()
	store.Record(cfg.Key(), runner.StoredResult{Result: res})
	srv, err := simd.New(simd.Options{Workers: 1, Store: store})
	if err != nil {
		b.Fatal(err)
	}
	addr := "unix:" + filepath.Join(b.TempDir(), "simd.sock")
	ln, err := simd.Listen(addr)
	if err != nil {
		b.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		stop()
		if err := <-served; err != nil {
			b.Error(err)
		}
	}()
	ns, err := runner.OpenNetStore(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer ns.Close()
	key := cfg.Key()
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := ns.Lookup(key); !ok {
			b.Fatal("stored result missed")
		}
	}
}

// ---------------------------------------------------------------------
// Figure benchmarks: one per table/figure of the paper, each through
// the declarative batch API on a fresh Session per iteration.
// ---------------------------------------------------------------------

// Table1Hybrid regenerates the hybrid size schedule.
func Table1Hybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure4Organizations regenerates the ways-vs-sets grid.
func Figure4Organizations(b *testing.B) {
	ctx := context.Background()
	var last figures.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = figures.Figure4(ctx, resizecache.NewSession(), FigOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if v, ok := last.Cell(resizecache.DOnly, resizecache.SelectiveSets, 2); ok {
		b.ReportMetric(v, "sets2way_edp_red_pct")
	}
	if v, ok := last.Cell(resizecache.DOnly, resizecache.SelectiveWays, 16); ok {
		b.ReportMetric(v, "ways16way_edp_red_pct")
	}
}

// Figure5PerApp regenerates the per-app comparison at 4-way.
func Figure5PerApp(b *testing.B) {
	ctx := context.Background()
	var last figures.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = figures.Figure5(ctx, resizecache.NewSession(), resizecache.DOnly, FigOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	_, _, ew, es := last.Averages()
	b.ReportMetric(ew, "ways_edp_red_pct")
	b.ReportMetric(es, "sets_edp_red_pct")
}

// Figure6Hybrid regenerates the hybrid-organization comparison.
func Figure6Hybrid(b *testing.B) {
	ctx := context.Background()
	var last figures.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = figures.Figure6(ctx, resizecache.NewSession(), FigOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if v, ok := last.Cell(resizecache.DOnly, resizecache.Hybrid, 4); ok {
		b.ReportMetric(v, "hybrid4way_edp_red_pct")
	}
}

// Figure7DCacheStrategies regenerates the d-cache static/dynamic panel.
func Figure7DCacheStrategies(b *testing.B) {
	ctx := context.Background()
	var last figures.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = figures.StrategyPanel(ctx, resizecache.NewSession(),
			resizecache.DOnly, resizecache.InOrderEngine, FigOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	_, _, se, de := last.Averages()
	b.ReportMetric(se, "static_edp_red_pct")
	b.ReportMetric(de, "dynamic_edp_red_pct")
}

// Figure8ICacheStrategies regenerates the i-cache static/dynamic panel.
func Figure8ICacheStrategies(b *testing.B) {
	ctx := context.Background()
	var last figures.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = figures.StrategyPanel(ctx, resizecache.NewSession(),
			resizecache.IOnly, resizecache.OutOfOrderEngine, FigOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	_, _, se, de := last.Averages()
	b.ReportMetric(se, "static_edp_red_pct")
	b.ReportMetric(de, "dynamic_edp_red_pct")
}

// Figure9DualResize regenerates the both-caches experiment.
func Figure9DualResize(b *testing.B) {
	ctx := context.Background()
	var last figures.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = figures.Figure9(ctx, resizecache.NewSession(), FigOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	_, _, _, de, ie, be := last.Averages()
	b.ReportMetric(de+ie, "sum_edp_red_pct")
	b.ReportMetric(be, "both_edp_red_pct")
}

// FigureL2Resizing regenerates the L2-resizing extension (static panel).
func FigureL2Resizing(b *testing.B) {
	ctx := context.Background()
	var last figures.FigL2Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = figures.FigureL2(ctx, resizecache.NewSession(), resizecache.Static, FigOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if r, ok := last.Row(resizecache.SelectiveSets); ok {
		b.ReportMetric(r.EDPReductionPct, "sets_l2_edp_red_pct")
		b.ReportMetric(r.L2SizeRedPct, "sets_l2_size_red_pct")
	}
}
