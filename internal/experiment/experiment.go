// Package experiment defines the paper's evaluation machinery: offline
// profiling sweeps that select static sizes and dynamic parameters by
// minimum energy-delay product (a SweepSpec resolved into a Sweep whose
// Best picks the winner, and CombinedBests for several sides at once),
// plus the extension sensitivity studies. The table/figure drivers
// themselves live in the public figures package, built on the facade's
// Grid/Plan/Session.Run batch API.
//
// All simulation execution goes through the run-orchestration layer
// (internal/runner): sweeps submit batches of configs to a shared
// memoizing worker pool, so repeated configurations — most prominently
// the non-resizable baseline every sweep compares against — simulate at
// most once per runner, and a plan's sweeps can be enqueued up front in
// one batched pass (EnqueueSweeps) so gathers join in-flight work. On
// top of that, every winner-selection sweep (Sweep.Best and the
// sensitivity variants) memoizes its outcome as a sweep-level artifact
// keyed by the sweep's definition (see artifact.go), so a driver
// repeating a grid another figure already profiled resolves the whole
// sweep — not just its simulations — from cache. Every simulation is
// independently deterministic, so results do not depend on scheduling.
package experiment

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"strings"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/workload"
)

// Side selects which cache of the hierarchy an experiment resizes.
type Side int

const (
	// DSide resizes the data cache.
	DSide Side = iota
	// ISide resizes the instruction cache.
	ISide
	// BothSides resizes both L1 caches simultaneously (the paper's
	// Figure 9 combined experiment).
	BothSides
	// L2Side resizes the shared L2 (the hierarchy's outermost level).
	L2Side
)

func (s Side) String() string {
	switch s {
	case ISide:
		return "i-cache"
	case BothSides:
		return "d+i-caches"
	case L2Side:
		return "l2-cache"
	default:
		return "d-cache"
	}
}

// Options control sweep scale; the defaults regenerate the paper's
// figures at full fidelity.
type Options struct {
	// Instructions per simulation.
	Instructions uint64
	// Apps restricts the benchmark list (nil = all twelve).
	Apps []string
	// Engine is the processor model (Figures 4-6 and 9 use the
	// out-of-order base configuration).
	Engine sim.EngineKind
	// Runner executes the simulations (nil = the process-wide shared
	// runner). Passing a dedicated runner makes a sweep hermetic; passing
	// one with a DiskStore makes it resumable across processes.
	Runner *runner.Runner
}

// DefaultOptions returns full-fidelity settings.
func DefaultOptions() Options {
	return Options{Instructions: 1_500_000, Engine: sim.OutOfOrder}
}

func (o Options) apps() []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return workload.Names()
}

func (o Options) runner() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return runner.Default()
}

// l1Geom returns the experiments' 32K L1 geometry at a set-associativity.
func l1Geom(assoc int) geometry.Geometry {
	return geometry.Geometry{SizeBytes: 32 << 10, Assoc: assoc,
		BlockBytes: 32, SubarrayBytes: 1 << 10}
}

// baseConfig builds the simulation config for one app with non-resizable
// caches of the given associativities.
func baseConfig(app string, engine sim.EngineKind, instr uint64, dAssoc, iAssoc int) sim.Config {
	cfg := sim.Default(app)
	cfg.Engine = engine
	cfg.Instructions = instr
	cfg.DCache = sim.CacheSpec{Geom: l1Geom(dAssoc), Org: core.NonResizable}
	cfg.ICache = sim.CacheSpec{Geom: l1Geom(iAssoc), Org: core.NonResizable}
	return cfg
}

// BaseConfig builds the non-resizable baseline config sweeps derive
// their candidates from: the app on opts' engine and instruction budget
// with 32K L1s at one associativity and the default shared hierarchy.
// Callers building custom sweeps (a different L2, a deeper hierarchy)
// override Levels before wrapping it in a SweepSpec.
func BaseConfig(app string, assoc int, opts Options) sim.Config {
	return baseConfig(app, opts.Engine, opts.Instructions, assoc, assoc)
}

// Best is the outcome of a profiling sweep for one application: the
// minimum-EDP configuration relative to the non-resizable baseline of the
// same size and associativity.
type Best struct {
	App    string
	Side   Side
	Org    core.Organization
	Desc   string // chosen configuration, e.g. "static 8K/4-way" or "dynamic mb=512 sb=4K"
	Spec   sim.PolicySpec
	Chosen sim.Result
	Base   sim.Result
	// Resized lists the sides a combined run (CombinedBests) resized;
	// empty for single-sweep Bests, where Side alone identifies the
	// cache. SizeReductionPct computes over these when set.
	Resized []Side `json:",omitempty"`
}

// EDPReductionPct is the paper's headline metric: percent reduction in
// processor energy-delay versus the baseline.
func (b Best) EDPReductionPct() float64 { return b.Chosen.EDP.ReductionPct(b.Base.EDP) }

// sideReport returns the chosen result's report for one resized side.
func (b Best) sideReport(side Side) sim.CacheReport {
	switch side {
	case ISide:
		return b.Chosen.ICache
	case L2Side:
		return b.Chosen.L2()
	default:
		return b.Chosen.DCache
	}
}

// SizeReductionPct is the percent reduction in average enabled capacity
// of the resized cache(s): the single resized cache for sweep Bests,
// the combined d+i capacity for the paper's BothSides experiment, and
// the combined capacity of every resized side for a CombinedBests
// result (which records them in Resized).
func (b Best) SizeReductionPct() float64 {
	sides := b.Resized
	if len(sides) == 0 {
		switch b.Side {
		case BothSides:
			sides = []Side{DSide, ISide}
		default:
			sides = []Side{b.Side}
		}
	}
	var avg, full float64
	for _, s := range sides {
		r := b.sideReport(s)
		avg += r.AvgBytes
		full += float64(r.FullBytes)
	}
	if full == 0 {
		return 0
	}
	return 100 * (1 - avg/full)
}

// SlowdownPct is the performance degradation versus baseline.
func (b Best) SlowdownPct() float64 { return 100 * b.Chosen.EDP.Slowdown(b.Base.EDP) }

// applySide sets the resizable side of a config. Only DSide, ISide, and
// L2Side are valid: combined resizing is a distinct protocol
// (CombinedBests), not a sweep parameter — sweeps must reject BothSides
// via checkSweepSide. For L2Side only the level's geometry,
// organization, and policy are replaced: the base level keeps its
// structural knobs (precharge mode, MSHR and writeback sizing) and its
// ablation switches, so a sweep over an ablated base compares ablated
// candidates against the ablated baseline.
func applySide(cfg *sim.Config, side Side, spec sim.CacheSpec) {
	switch side {
	case ISide:
		cfg.ICache = spec
	case L2Side:
		// Never write through to a hierarchy other configs share;
		// sideGeom already rejected an empty one.
		cfg.Levels = append([]sim.LevelSpec(nil), cfg.Levels...)
		l := &cfg.Levels[0]
		l.Geom, l.Org, l.Policy = spec.Geom, spec.Org, spec.Policy
	default:
		cfg.DCache = spec
	}
}

// sideGeom returns the geometry of the cache a side resizes.
func sideGeom(cfg *sim.Config, side Side) (geometry.Geometry, error) {
	switch side {
	case ISide:
		return cfg.ICache.Geom, nil
	case L2Side:
		if len(cfg.Levels) == 0 {
			return geometry.Geometry{}, fmt.Errorf("experiment: L2 resizing needs a shared level in the hierarchy")
		}
		return cfg.Levels[0].Geom, nil
	default:
		return cfg.DCache.Geom, nil
	}
}

// checkSweepSide rejects sides a single-cache profiling sweep cannot
// resize; without it BothSides would silently profile the d-cache only
// while reporting combined d+i metrics.
func checkSweepSide(side Side) error {
	if side != DSide && side != ISide && side != L2Side {
		return fmt.Errorf("experiment: profiling sweeps resize one cache (got %v); use CombinedBests for several", side)
	}
	return nil
}

// pickBest selects the minimum-EDP candidate from a sweep batch whose
// first element is the baseline.
func pickBest(res []sim.Result) int {
	best := 1
	for i := 2; i < len(res); i++ {
		if res[i].EDP.Product() < res[best].EDP.Product() {
			best = i
		}
	}
	return best
}

// SweepSpec identifies one profiling sweep — the unit Sweep.Best
// executes, and the unit plan-level batch scheduling enqueues up front
// (see EnqueueSweeps). Base is the fully resolved non-resizable
// baseline config (benchmark, engine, instruction budget,
// associativities, and any sensitivity overrides such as subarray or L2
// geometry); the sweep derives its candidate configs from it
// deterministically, so a spec built twice enumerates byte-identical
// batches and fingerprints to the same artifact. Resolve turns it into
// the Sweep that runs.
type SweepSpec struct {
	App     string
	Side    Side
	Org     core.Organization
	Dynamic bool
	Base    sim.Config

	// baseline is the fingerprinted Baseline the spec was made from
	// (Baseline.Spec), if any; Resolve reuses its fingerprint while
	// Base is still its config.
	baseline *Baseline
}

// NewSweepSpec builds the spec for one (app, side, org, assoc) sweep
// under opts: the static sweep over every schedule point of org (the
// paper's static strategy: run each offered size offline, pick the
// minimum-EDP one), or with dynamic the dynamic controller's parameter
// grid.
func NewSweepSpec(app string, side Side, org core.Organization, assoc int, dynamic bool, opts Options) SweepSpec {
	return SweepSpec{App: app, Side: side, Org: org, Dynamic: dynamic,
		Base: baseConfig(app, opts.Engine, opts.Instructions, assoc, assoc)}
}

// Baseline is a baseline config fingerprinted once. The sweeps of one
// scenario (its d-, i- and L2-cache sweeps) and the scenarios of a plan
// that share a benchmark, engine, budget and hierarchy all run over one
// baseline; specs made from one Baseline (Spec) reuse its fingerprint
// instead of hashing the same config once per sweep. Its config and
// fingerprint are unexported, so they always belong together.
type Baseline struct {
	cfg sim.Config
	key sim.Key
}

// NewBaseline fingerprints a baseline config. The Baseline keeps its
// own copy of cfg's hierarchy, so later writes through the caller's
// Levels cannot make the config and its fingerprint disagree.
func NewBaseline(cfg sim.Config) *Baseline {
	cfg.Levels = slices.Clone(cfg.Levels)
	return &Baseline{cfg: cfg, key: cfg.Key()}
}

// Spec makes the spec of one sweep over the baseline: Base is the
// baseline's config, and Resolve takes the baseline's fingerprint for
// it as long as Base still equals that config (sim.Config.Equal) — a
// caller that edits Base gets a fingerprint of the edited config.
func (b *Baseline) Spec(app string, side Side, org core.Organization, dynamic bool) SweepSpec {
	return SweepSpec{App: app, Side: side, Org: org, Dynamic: dynamic, Base: b.cfg, baseline: b}
}

// baseKey is Base's fingerprint: the one of the Baseline the spec was
// made from while Base is still its config, hashed afresh otherwise.
func (s *SweepSpec) baseKey() sim.Key {
	if b := s.baseline; b != nil && b.cfg.Equal(&s.Base) {
		return b.key
	}
	return s.Base.Key()
}

// kind is the artifact-cache namespace of the sweep.
func (s *SweepSpec) kind() string {
	if s.Dynamic {
		return "best-dynamic"
	}
	return "best-static"
}

// ArtifactKey is the sweep's artifact-cache fingerprint: one hash over
// artifactVersion, the sweep kind, App, Side, Org and Base.Key() — every
// field of the spec. The candidate batch is a pure function of those
// plus code artifactVersion versions, so a change to candidate
// enumeration, schedule building or winner selection must bump it
// (TestSweepBatchesPinned fails until it does); a change to any
// underlying simulation moves Base.Key() by itself. Layers caching
// values derived from whole sweeps (the facade's figure-level
// aggregates) compose it into their own fingerprints so their caches
// invalidate together with the sweep tier. It is Resolve's key, and
// errors where Resolve does.
func (s SweepSpec) ArtifactKey() (sim.Key, error) {
	if err := s.check(); err != nil {
		return sim.Key{}, err
	}
	return s.artifactKey(), nil
}

// Sweep is a SweepSpec resolved for execution: its side, organization
// and resized geometry checked and its artifact fingerprint computed —
// once. A plan resolves each spec once and hands the same Sweep to the
// batch-enqueue pass (EnqueueSweeps) and to its gather (Best). The
// resized cache's schedule and the []sim.Config batch are built only on
// the cold path. Obtain a Sweep from Resolve.
type Sweep struct {
	spec SweepSpec
	key  sim.Key
	// cold is the batch EnqueueSweeps enqueued for the sweep, which
	// Best then runs without building or fingerprinting it again; nil
	// until then.
	cold *coldBatch
}

// coldBatch is a cold sweep's batch: its configs — the baseline, then
// every candidate — their runner jobs, and the candidates' policies over
// the resized cache's schedule.
type coldBatch struct {
	sched core.Schedule
	cfgs  []sim.Config
	jobs  []runner.Job
	pols  []sim.PolicySpec
}

// Resolve checks that the spec's sweep can run — a single resized
// side, a known organization, a valid geometry for the resized cache —
// and fingerprints it. It builds nothing a warm sweep does not read:
// the schedule waits for the cold path, and a spec made from a
// Baseline takes the baseline's fingerprint instead of hashing Base.
func (s SweepSpec) Resolve() (Sweep, error) {
	if err := s.check(); err != nil {
		return Sweep{}, err
	}
	return Sweep{spec: s, key: s.artifactKey()}, nil
}

// check rejects a spec whose sweep cannot run: one that does not
// resize exactly one cache, or whose resized cache has no schedule.
func (s *SweepSpec) check() error {
	if err := checkSweepSide(s.Side); err != nil {
		return err
	}
	geom, err := sideGeom(&s.Base, s.Side)
	if err != nil {
		return err
	}
	return core.ValidateSchedule(geom, s.Org)
}

// Spec returns the spec the sweep was resolved from.
func (sw Sweep) Spec() SweepSpec { return sw.spec }

// schedule builds the resized cache's schedule for the cold path.
// BuildSchedule rejects only what Resolve already checked
// (core.ValidateSchedule), so a resolved sweep always has one.
func (sw Sweep) schedule() core.Schedule {
	geom, _ := sideGeom(&sw.spec.Base, sw.spec.Side)
	sched, _ := core.BuildSchedule(geom, sw.spec.Org)
	return sched
}

// policies yields every candidate's policy for the resized cache, in
// batch order (the baseline, which runs first, has none).
func (sw Sweep) policies(sched core.Schedule) iter.Seq[sim.PolicySpec] {
	return func(yield func(sim.PolicySpec) bool) {
		if !sw.spec.Dynamic {
			for i := range sched.Points {
				if !yield(sim.PolicySpec{Kind: sim.PolicyStatic, StaticIndex: i}) {
					return
				}
			}
			return
		}
		dynamicCandidates(sched, sw.spec.Side == L2Side, yield)
	}
}

// artifactKey fingerprints the sweep by its definition; see
// ArtifactKey.
func (s *SweepSpec) artifactKey() sim.Key {
	return sim.NewKeyBuilder("experiment/sweep").Int(artifactVersion).Str(s.kind()).
		Str(s.App).Int(int(s.Side)).Int(int(s.Org)).RawKey(s.baseKey()).Sum()
}

// Configs materializes the batch the sweep runs — the baseline followed
// by every candidate — with each candidate's policy. Only the cold path
// calls it: the compute of an artifact miss, and EnqueueSweeps for a
// sweep it finds cold.
func (sw Sweep) Configs() ([]sim.Config, []sim.PolicySpec) {
	return sw.batch(sw.schedule())
}

// coldBatch returns the batch EnqueueSweeps recorded for the sweep, or
// builds and fingerprints it. The baseline takes the spec's fingerprint
// (baseKey), which a spec made from a Baseline does not recompute.
func (sw Sweep) coldBatch() *coldBatch {
	if sw.cold != nil {
		return sw.cold
	}
	b := &coldBatch{sched: sw.schedule()}
	b.cfgs, b.pols = sw.batch(b.sched)
	b.jobs = make([]runner.Job, len(b.cfgs))
	b.jobs[0] = runner.Job{Cfg: &b.cfgs[0], Key: sw.spec.baseKey()}
	for i := 1; i < len(b.cfgs); i++ {
		b.jobs[i] = runner.Job{Cfg: &b.cfgs[i], Key: b.cfgs[i].Key()}
	}
	return b
}

// batch is Configs over an already built schedule.
func (sw Sweep) batch(sched core.Schedule) ([]sim.Config, []sim.PolicySpec) {
	n := 0
	for range sw.policies(sched) {
		n++
	}
	base := sw.spec.Base
	cfgs := make([]sim.Config, 1, 1+n)
	cfgs[0] = base
	pols := make([]sim.PolicySpec, 0, n)
	for p := range sw.policies(sched) {
		cfg := base
		applySide(&cfg, sw.spec.Side, sim.CacheSpec{Geom: sched.Geom, Org: sw.spec.Org, Policy: p})
		cfgs = append(cfgs, cfg)
		pols = append(pols, p)
	}
	return cfgs, pols
}

// describe names a candidate policy of a schedule for Best.Desc.
func describe(sched core.Schedule, p sim.PolicySpec) string {
	if p.Kind == sim.PolicyDynamic {
		return fmt.Sprintf("dynamic mb=%d sb=%s", p.MissBound, geometry.FormatSize(p.SizeBoundBytes))
	}
	return fmt.Sprintf("static %v", sched.Points[p.StaticIndex])
}

// Best is the sweep core: it runs (or resolves) the sweep's batch and
// selects the minimum-EDP winner versus the baseline. The whole sweep
// memoizes as one artifact through the runner's artifact cache, keyed
// by the sweep's definition — so a repeated sweep (the same grid cell
// in a later figure, or a resumed process with a persistent store)
// resolves without submitting a single simulation. A cold sweep runs
// its batch through RunAll, which gangs same-front candidates; a sweep
// enqueued up front by a plan gathers by joining the in-flight work.
func (sw Sweep) Best(ctx context.Context, opts Options) (Best, error) {
	return cachedBest(ctx, opts.runner(), sw.key, func(ctx context.Context) (Best, error) {
		b := sw.coldBatch()
		res, err := opts.runner().RunAll(ctx, b.jobs)
		if err != nil {
			return Best{}, err
		}
		bestIdx := pickBest(res)
		p := b.pols[bestIdx-1]
		return Best{
			App: sw.spec.App, Side: sw.spec.Side, Org: sw.spec.Org,
			Desc: describe(b.sched, p), Spec: p,
			Chosen: res[bestIdx],
			Base:   res[0],
		}, nil
	})
}

// EnqueueSweeps submits the simulations of every cold sweep to the
// runner in one batched, non-blocking pass: sweeps whose artifact is
// already cached (either tier) are skipped outright, the rest have their
// batches built and fingerprinted once — a sweep listed twice shares
// one — deduplicated by fingerprint (sweeps of one plan share
// baselines) and handed to Runner.Enqueue in one call. Each cold
// sweep's element of sweeps records its batch, so the later per-sweep
// gather (Best on that element) joins the in-flight work without
// building or hashing anything again, and a multi-scenario plan's
// simulations interleave freely on the shared pool instead of running
// one sweep's batch at a time. Returns the number of configs enqueued
// and a wait function with Runner.Enqueue's semantics (cancel ctx, then
// wait, before flushing a store out from under abandoned stragglers).
func EnqueueSweeps(ctx context.Context, sweeps []Sweep, opts Options) (int, func()) {
	r := opts.runner()
	var batches map[sim.Key]*coldBatch // made by the first cold sweep
	var seen map[sim.Key]bool
	var jobs []runner.Job
	for i := range sweeps {
		sw := &sweeps[i]
		if b, ok := batches[sw.key]; ok {
			sw.cold = b
			continue
		}
		if r.HasArtifact(sw.key) {
			continue
		}
		if batches == nil {
			batches, seen = make(map[sim.Key]*coldBatch), make(map[sim.Key]bool)
		}
		b := sw.coldBatch()
		batches[sw.key], sw.cold = b, b
		for _, j := range b.jobs {
			if !seen[j.Key] {
				seen[j.Key] = true
				jobs = append(jobs, j)
			}
		}
	}
	if len(jobs) == 0 {
		return 0, func() {}
	}
	return r.Enqueue(ctx, jobs)
}

// resolveAll resolves every spec, failing on the first that cannot run.
func resolveAll(specs []SweepSpec) ([]Sweep, error) {
	sweeps := make([]Sweep, len(specs))
	for i, spec := range specs {
		sw, err := spec.Resolve()
		if err != nil {
			return nil, err
		}
		sweeps[i] = sw
	}
	return sweeps, nil
}

// dynamicCandidates enumerates the offline profiling grid for the
// miss-ratio controller, yielding each distinct policy in
// order until yield returns false: miss-bounds as fractions of the
// interval and size-bounds across the schedule's range. lowTraffic
// selects the interval set for caches that see only the level above's
// misses (the shared L2): an order of magnitude shorter, so the
// controller still observes enough interval boundaries to adapt.
func dynamicCandidates(sched core.Schedule, lowTraffic bool, yield func(sim.PolicySpec) bool) {
	// Miss-bounds span well past each app's background miss level
	// (conflict and cold misses) or the controller would pin at full
	// size; the shorter interval tracks phases in shorter runs; the
	// size-bound candidates are every offered size below full, since the
	// bound is how profiling pins the controller at an app's known floor.
	intervals := [...]uint64{4096, 16384, 65536}
	if lowTraffic {
		intervals = [...]uint64{128, 1024, 8192}
	}
	missFracs := [...]float64{0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15}
	sizeBounds := sched.Points[1:]
	if len(sizeBounds) == 0 {
		sizeBounds = []core.SizePoint{{Bytes: sched.Geom.SizeBytes}}
	}
	holds := [...]int{0, 3}
	for _, iv := range intervals {
		prevMB := ^uint64(0)
		for _, mf := range missFracs {
			// Schedule sizes are distinct and miss-bounds never decrease
			// with the fraction, so the only repeats are a fraction whose
			// bound rounds to its predecessor's: skip its whole block.
			mb := uint64(mf * float64(iv))
			if mb == prevMB {
				continue
			}
			prevMB = mb
			for _, sb := range sizeBounds {
				for _, h := range holds {
					if !yield(sim.PolicySpec{Kind: sim.PolicyDynamic, Interval: iv,
						MissBound: mb, SizeBoundBytes: sb.Bytes, UpsizeHoldIntervals: h}) {
						return
					}
				}
			}
		}
	}
}

// Combination is a combined run: one simulation with every profiled
// winner applied to its side of a base config — any subset of
// {d-cache, i-cache, L2}. The paper's Figure 9 combines the two L1
// winners: the additivity of d- and i-cache resizing lets each be
// profiled alone. Each part carries its own side, organization, and
// policy from its sweep.
type Combination struct {
	// Cfg is the combined run's config.
	Cfg   sim.Config
	parts []Best
}

// Combine applies every part's winner to base, its parts' shared
// non-resizable baseline.
func Combine(base sim.Config, parts []Best) (Combination, error) {
	if len(parts) == 0 {
		return Combination{}, fmt.Errorf("experiment: no profiled parts to combine")
	}
	cfg := base
	for _, p := range parts {
		geom, err := sideGeom(&cfg, p.Side)
		if err != nil {
			return Combination{}, err
		}
		applySide(&cfg, p.Side, sim.CacheSpec{Geom: geom, Org: p.Org, Policy: p.Spec})
	}
	return Combination{Cfg: cfg, parts: parts}, nil
}

// Best is the combination's outcome given its run's result, compared
// against the parts' shared baseline.
func (c Combination) Best(res sim.Result) Best {
	descs := make([]string, 0, len(c.parts))
	resized := make([]Side, 0, len(c.parts))
	for _, p := range c.parts {
		descs = append(descs, p.Desc)
		resized = append(resized, p.Side)
	}
	return Best{
		App: c.parts[0].App, Side: BothSides, Org: c.parts[0].Org,
		Desc:    "both: " + strings.Join(descs, " + "),
		Chosen:  res,
		Base:    c.parts[0].Base,
		Resized: resized,
	}
}

// CombinedBests is the decoupled-profiling protocol generalized over
// the hierarchy: the Combination of parts over base, run on the
// options' runner.
func CombinedBests(ctx context.Context, base sim.Config, parts []Best, opts Options) (Best, error) {
	c, err := Combine(base, parts)
	if err != nil {
		return Best{}, err
	}
	res, err := opts.runner().Run(ctx, c.Cfg)
	if err != nil {
		return Best{}, err
	}
	return c.Best(res), nil
}
