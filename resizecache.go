// Package resizecache is the public facade of the resizable-cache
// design-space simulator, a from-scratch reproduction of Yang, Powell,
// Falsafi & Vijaykumar, "Exploiting Choice in Resizable Cache Design to
// Optimize Deep-Submicron Processor Energy-Delay" (HPCA 2002).
//
// The library simulates a complete processor — out-of-order or in-order
// pipeline, resizable L1 instruction and data caches, unified L2, main
// memory, and a Wattch-style energy model — driven by synthetic
// reproductions of the paper's twelve SPEC workloads. It exposes:
//
//   - the three resizing organizations: selective-ways, selective-sets,
//     and the paper's hybrid selective-sets-and-ways;
//   - the two resizing strategies: static (offline-profiled fixed size)
//     and dynamic (miss-ratio interval controller with miss-bound and
//     size-bound);
//   - a declarative shared hierarchy: preset shapes (BaseL2, NoL2,
//     SmallL2, BigL2, DeepL2L3) on the Hierarchies grid axis, and a
//     resizable L2 via Scenario.L2 / the L2Orgs axis — the L2 profiles
//     and resizes with exactly the machinery the L1s use;
//   - profiling sweeps and the drivers that regenerate every table and
//     figure of the paper's evaluation (see cmd/figures).
//
// Quick start:
//
//	res, err := resizecache.Simulate(resizecache.Scenario{
//	    Benchmark:    "gcc",
//	    Organization: resizecache.SelectiveSets,
//	    Strategy:     resizecache.Dynamic,
//	})
//
// The paper's evaluation is a design-space sweep, and the API is built
// around that shape: a Grid declares axes (benchmarks, organizations,
// strategies, associativities, resize sides, engines), expands into a
// deterministic deduplicated Plan of Scenarios, and Session.Run executes
// the whole plan as one batch — every cold profiling sweep is enqueued
// on the shared worker pool up front, and Results stream back as
// scenarios complete. See Grid, Plan, and Session.Run.
package resizecache

import (
	"context"
	"fmt"

	"resizecache/internal/core"
	"resizecache/internal/energy"
	"resizecache/internal/experiment"
	"resizecache/internal/geometry"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/workload"
)

// Organization selects a resizable-cache organization.
type Organization = core.Organization

// Organizations, re-exported from the core package.
const (
	NonResizable  = core.NonResizable
	SelectiveWays = core.SelectiveWays
	SelectiveSets = core.SelectiveSets
	Hybrid        = core.Hybrid
)

// ParseOrganization parses an organization name as the CLIs spell it:
// "none", "ways", "sets", or "hybrid" (the String() forms are also
// accepted).
func ParseOrganization(s string) (Organization, error) {
	switch s {
	case "", "none", "non-resizable":
		return NonResizable, nil
	case "ways", "selective-ways":
		return SelectiveWays, nil
	case "sets", "selective-sets":
		return SelectiveSets, nil
	case "hybrid":
		return Hybrid, nil
	default:
		return 0, fmt.Errorf("resizecache: unknown organization %q (none, ways, sets, hybrid)", s)
	}
}

// ParseStrategy parses a strategy name: "static" or "dynamic".
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "static":
		return Static, nil
	case "dynamic":
		return Dynamic, nil
	default:
		return 0, fmt.Errorf("resizecache: unknown strategy %q (static, dynamic)", s)
	}
}

// Strategy selects when the cache resizes.
type Strategy int

const (
	// Static profiles all offered sizes offline and fixes the best one.
	Static Strategy = iota
	// Dynamic resizes at run time with the miss-ratio controller,
	// choosing its parameters by offline profiling.
	Dynamic
)

func (s Strategy) String() string {
	if s == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Sides selects which of the L1 caches a scenario resizes.
type Sides int

const (
	// BothSides resizes the d-cache and the i-cache together (the
	// paper's combined experiment). This is the zero value.
	BothSides Sides = iota
	// DOnly resizes the data cache only.
	DOnly
	// IOnly resizes the instruction cache only.
	IOnly
	// L2Only leaves both L1s fixed and resizes the shared L2 alone;
	// Scenario.L2 must name a resizable organization. A scenario whose
	// Organization is NonResizable but whose L2 resizes normalizes to
	// this value.
	L2Only
)

func (s Sides) String() string {
	switch s {
	case DOnly:
		return "d-cache"
	case IOnly:
		return "i-cache"
	case L2Only:
		return "l2-cache"
	default:
		return "d+i-caches"
	}
}

// Hierarchy names a shared-cache hierarchy shape below the split L1s —
// one Grid axis, sweepable like any other dimension. Each value expands
// to a sim.LevelSpec stack; BaseL2 (the zero value) is the paper's
// Table 2 hierarchy.
type Hierarchy int

const (
	// BaseL2 is the paper's base hierarchy: one 512K 4-way unified L2.
	BaseL2 Hierarchy = iota
	// NoL2 connects the L1s straight to memory.
	NoL2
	// SmallL2 halves the L2 to 256K (4-way).
	SmallL2
	// BigL2 doubles the L2 to 1M (4-way).
	BigL2
	// DeepL2L3 backs the 512K L2 with a 2M 8-way L3.
	DeepL2L3
)

func (h Hierarchy) String() string {
	switch h {
	case NoL2:
		return "no-l2"
	case SmallL2:
		return "256K-l2"
	case BigL2:
		return "1M-l2"
	case DeepL2L3:
		return "l2+l3"
	default:
		return "512K-l2"
	}
}

// l2DefaultAssoc is the set-associativity of every preset's L2.
const l2DefaultAssoc = 4

// l2Geometry returns a preset-style L2/L3 geometry at one capacity and
// associativity (64B blocks, 4K subarrays, per Table 2).
func l2Geometry(sizeBytes, assoc int) geometry.Geometry {
	return geometry.Geometry{SizeBytes: sizeBytes, Assoc: assoc,
		BlockBytes: 64, SubarrayBytes: 4 << 10}
}

// l2Bytes returns the capacity of the hierarchy's L2, 0 when it has
// none; it fails for an unknown preset.
func (h Hierarchy) l2Bytes() (int, error) {
	switch h {
	case BaseL2, DeepL2L3:
		return 512 << 10, nil
	case NoL2:
		return 0, nil
	case SmallL2:
		return 256 << 10, nil
	case BigL2:
		return 1 << 20, nil
	default:
		return 0, fmt.Errorf("resizecache: unknown hierarchy %d", int(h))
	}
}

// checkL2Assoc rejects an L2 associativity override the hierarchy's L2
// geometry cannot take, without building the level stack.
func (h Hierarchy) checkL2Assoc(l2Assoc int) error {
	size, err := h.l2Bytes()
	if err != nil {
		return err
	}
	if size == 0 {
		return fmt.Errorf("resizecache: L2 associativity set on a NoL2 hierarchy")
	}
	if err := l2Geometry(size, l2Assoc).Validate(); err != nil {
		return fmt.Errorf("resizecache: unsupported L2 associativity %d for the %v hierarchy: %w",
			l2Assoc, h, err)
	}
	return nil
}

// levelSpecs expands the hierarchy to its level stack; l2Assoc overrides
// the outermost level's associativity when nonzero.
func (h Hierarchy) levelSpecs(l2Assoc int) ([]sim.LevelSpec, error) {
	size, err := h.l2Bytes()
	if err != nil {
		return nil, err
	}
	if size == 0 {
		if l2Assoc != 0 {
			return nil, fmt.Errorf("resizecache: L2 associativity set on a NoL2 hierarchy")
		}
		return nil, nil
	}
	assoc := l2DefaultAssoc
	if l2Assoc != 0 {
		assoc = l2Assoc
	}
	n := 1
	if h == DeepL2L3 {
		n = 2
	}
	levels := make([]sim.LevelSpec, n)
	levels[0].CacheSpec = sim.CacheSpec{Geom: l2Geometry(size, assoc), Org: core.NonResizable}
	if h == DeepL2L3 {
		levels[1].CacheSpec = sim.CacheSpec{Geom: l2Geometry(2<<20, 8), Org: core.NonResizable}
	}
	return levels, nil
}

// L2Spec configures resizing of the hierarchy's outermost shared level
// in a Scenario. The zero value keeps the L2 fixed at the hierarchy's
// default geometry.
type L2Spec struct {
	// Organization of the resizable L2; NonResizable (the default)
	// keeps the L2 fixed.
	Organization Organization
	// Strategy for a resizable L2: Static (default) or Dynamic.
	Strategy Strategy
	// Assoc overrides the L2 set-associativity (0 = the hierarchy's
	// default, 4).
	Assoc int
}

// SamplingSpec configures interval-sampled execution: short detailed
// windows alternating with functional fast-forward (and optional
// skipped) gaps, scaled to whole-run estimates with standard-error
// bars. The zero value simulates every instruction in detail. See
// sim.SamplingSpec for field semantics and DefaultSampling for the
// tuned default schedule.
type SamplingSpec = sim.SamplingSpec

// DefaultSampling returns the tuned default sampling schedule: a 3-5×
// speedup with EDP estimates inside ±3% error bars at the default
// instruction budgets. Assign it to Scenario.Sampling or Grid.Sampling
// to trade exactness for sweep throughput.
func DefaultSampling() SamplingSpec { return sim.DefaultSampling() }

// Engine selects the processor timing model for a Grid axis.
type Engine int

const (
	// OutOfOrderEngine is the base 4-wide out-of-order configuration
	// with a non-blocking d-cache.
	OutOfOrderEngine Engine = iota
	// InOrderEngine is the in-order, blocking-d-cache configuration.
	InOrderEngine
)

func (e Engine) String() string {
	if e == InOrderEngine {
		return "in-order"
	}
	return "out-of-order"
}

// Scenario is a high-level experiment description: resize one or both
// L1 caches of the paper's base processor for one benchmark and report
// the energy-delay outcome against the non-resizable baseline.
type Scenario struct {
	// Benchmark is one of Benchmarks().
	Benchmark string
	// Organization of the resizable cache(s).
	Organization Organization
	// Strategy: Static (default) or Dynamic.
	Strategy Strategy
	// Sides selects which caches resize: BothSides (the default), DOnly,
	// or IOnly.
	Sides Sides
	// Assoc is the L1 set-associativity (default 2, the base config).
	// It must describe a geometry the schedule builder supports: a
	// positive power of two no larger than the 32K cache's subarray
	// count allows (32 at the base 1K subarrays).
	Assoc int
	// Hierarchy selects the shared-cache stack below the L1s (default
	// BaseL2, the paper's 512K 4-way unified L2).
	Hierarchy Hierarchy
	// L2 resizes the hierarchy's outermost shared level: when its
	// Organization is resizable, the L2 is profiled and resized exactly
	// like an L1 — alone (Sides == L2Only) or alongside the resizing
	// L1s, with the combined run holding every cache at its
	// individually profiled winner.
	L2 L2Spec
	// InOrder switches to the in-order/blocking-d-cache engine.
	InOrder bool
	// Instructions per run (default 1.5M).
	Instructions uint64
	// Sampling, when enabled, runs every simulation of this scenario —
	// profiling sweeps, baselines, and the combined run — interval
	// sampled instead of fully detailed: estimates carry error bars and
	// sweeps finish several times faster. The zero value keeps full
	// detail. Sampled and detailed runs of the same experiment memoize
	// separately (Sampling is part of the config fingerprint).
	Sampling SamplingSpec
}

// normalize validates a scenario and fills defaults, returning the
// canonical form shared by Simulate and Plan expansion: Assoc and
// Instructions are defaulted and inert axes zeroed, so two scenarios
// describing the same experiment compare equal — which is what Plan
// deduplication relies on.
func (sc Scenario) normalize() (Scenario, error) {
	if sc.Benchmark == "" {
		return Scenario{}, fmt.Errorf("resizecache: benchmark required (one of %v)", Benchmarks())
	}
	if _, err := workload.Get(sc.Benchmark); err != nil {
		return Scenario{}, fmt.Errorf("resizecache: unknown benchmark %q (valid: %v)",
			sc.Benchmark, Benchmarks())
	}
	if sc.Assoc == 0 {
		sc.Assoc = 2
	}
	// Reject associativities the geometry layer cannot build (negative,
	// non-power-of-two way sizes, ways smaller than a subarray) up front,
	// instead of surfacing a degenerate schedule from deep inside a sweep.
	l1 := geometry.Geometry{SizeBytes: 32 << 10, Assoc: sc.Assoc,
		BlockBytes: 32, SubarrayBytes: 1 << 10}
	if err := l1.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("resizecache: unsupported associativity %d for the 32K L1: %w",
			sc.Assoc, err)
	}
	if sc.Instructions == 0 {
		sc.Instructions = 1_500_000
	}
	// Surface sampling-spec mistakes at plan time instead of from deep
	// inside a sweep (the sim layer enforces the same rules).
	if s := sc.Sampling; s != (SamplingSpec{}) {
		if !s.Enabled() {
			return Scenario{}, fmt.Errorf("resizecache: partial sampling spec %+v: both DetailedInstructions and FastForwardInstructions must be set", s)
		}
		if s.WarmupInstructions >= sc.Instructions {
			return Scenario{}, fmt.Errorf("resizecache: sampling warmup %d consumes the whole %d-instruction budget",
				s.WarmupInstructions, sc.Instructions)
		}
	}
	// Range-check the L1 strategy before any canonicalization can zero
	// it: a garbage value is an error even on a scenario that folds to
	// L2Only (folding a *valid* Dynamic to Static there is intended).
	if sc.Strategy != Static && sc.Strategy != Dynamic {
		return Scenario{}, fmt.Errorf("resizecache: unknown strategy %d", sc.Strategy)
	}

	// Hierarchy and L2 resizing. The hierarchy must be a known preset;
	// a resizable L2 needs a shared level to resize and defaults its
	// associativity to the preset's, so equal experiments compare equal.
	if _, err := sc.Hierarchy.l2Bytes(); err != nil {
		return Scenario{}, err
	}
	// Same garbage-is-an-error rule as the L1 strategy; a *valid* Dynamic
	// on a fixed L2 is merely inert and folds away below (the
	// L2Strategies grid axis crosses with fixed-L2 cells).
	if sc.L2.Strategy != Static && sc.L2.Strategy != Dynamic {
		return Scenario{}, fmt.Errorf("resizecache: unknown L2 strategy %d", sc.L2.Strategy)
	}
	resizesL2 := sc.L2.Organization != NonResizable
	if resizesL2 {
		if sc.Hierarchy == NoL2 {
			return Scenario{}, fmt.Errorf("resizecache: L2 resizing needs a hierarchy with a shared level (got %v)", sc.Hierarchy)
		}
		if sc.L2.Assoc == 0 {
			sc.L2.Assoc = l2DefaultAssoc
		}
	} else {
		sc.L2.Strategy = Static
	}
	if sc.L2.Assoc != 0 {
		// Validate against the hierarchy's actual L2 geometry: a 256K L2
		// supports fewer ways than a 1M one.
		if err := sc.Hierarchy.checkL2Assoc(sc.L2.Assoc); err != nil {
			return Scenario{}, err
		}
		if !resizesL2 && sc.L2.Assoc == l2DefaultAssoc {
			sc.L2.Assoc = 0 // the hierarchy default, spelled explicitly
		}
	}

	switch sc.Sides {
	case BothSides, DOnly, IOnly, L2Only:
	default:
		return Scenario{}, fmt.Errorf("resizecache: invalid Sides value %d", sc.Sides)
	}

	// Which caches actually resize. An L2-only experiment has two
	// spellings — Sides == L2Only, or a NonResizable L1 organization
	// with a resizable L2 — that normalize to one form with the inert
	// L1 axes zeroed.
	switch {
	case sc.Sides == L2Only:
		if !resizesL2 {
			return Scenario{}, fmt.Errorf("resizecache: Sides=L2Only needs a resizable Scenario.L2 organization")
		}
		sc.Organization, sc.Strategy = NonResizable, Static
	case sc.Organization == NonResizable:
		if !resizesL2 {
			return Scenario{}, fmt.Errorf("resizecache: pick a resizable organization")
		}
		// Only the unset (BothSides) default folds to L2Only: an explicit
		// DOnly/IOnly asked for an L1 resize the scenario cannot perform.
		if sc.Sides != BothSides {
			return Scenario{}, fmt.Errorf("resizecache: Sides=%v resizes an L1 but Organization is NonResizable; pick a resizable organization or Sides=L2Only", sc.Sides)
		}
		sc.Sides, sc.Strategy = L2Only, Static
	}
	return sc, nil
}

// baseID is what a normalized scenario's non-resizable baseline
// depends on: its benchmark, L1 associativity, engine, instruction
// budget, sampling schedule and shared hierarchy. Scenarios with equal
// baseIDs profile over one baseline config, so a plan-wide pass builds
// and fingerprints it once per distinct baseID (see baselines).
type baseID struct {
	benchmark    string
	assoc        int
	inOrder      bool
	instructions uint64
	sampling     SamplingSpec
	hierarchy    Hierarchy
	l2Assoc      int
}

// baseID projects the normalized scenario onto the fields its baseline
// is built from.
func (sc Scenario) baseID() baseID {
	return baseID{benchmark: sc.Benchmark, assoc: sc.Assoc, inOrder: sc.InOrder,
		instructions: sc.Instructions, sampling: sc.Sampling,
		hierarchy: sc.Hierarchy, l2Assoc: sc.L2.Assoc}
}

// baseline builds the fingerprinted non-resizable baseline config: L1s
// at the associativity over the hierarchy's level stack. It reads
// nothing but the baseID, so every profiling sweep and the combined run
// of every scenario sharing it derive from one config, and their
// fingerprints agree by construction. The error is non-nil only for a
// scenario that bypassed normalize (an invalid hierarchy).
func (id baseID) baseline() (*experiment.Baseline, error) {
	opts := experiment.DefaultOptions()
	opts.Instructions = id.instructions
	if id.inOrder {
		opts.Engine = sim.InOrder
	}
	base := experiment.BaseConfig(id.benchmark, id.assoc, opts)
	// BaseConfig's hierarchy is the BaseL2 preset at its default
	// associativity (the key golden tests pin that the two agree); any
	// other hierarchy is built here, once.
	if id.hierarchy != BaseL2 || id.l2Assoc != 0 {
		levels, err := id.hierarchy.levelSpecs(id.l2Assoc)
		if err != nil {
			return nil, err
		}
		base.Levels = levels
	}
	base.Sampling = id.sampling
	return experiment.NewBaseline(base), nil
}

// baselines holds, for one plan-wide pass, the baseline of each
// distinct baseID the pass has met, so a plan whose scenarios share a
// handful of baselines builds and hashes each once instead of once per
// scenario. It lives no longer than the pass.
type baselines map[baseID]*experiment.Baseline

// of returns the scenario's baseline, building it on first use; a nil
// baselines builds it for this one scenario.
func (m baselines) of(sc Scenario) (*experiment.Baseline, error) {
	id := sc.baseID()
	if b, ok := m[id]; ok {
		return b, nil
	}
	b, err := id.baseline()
	if err == nil && m != nil {
		m[id] = b
	}
	return b, err
}

// resizesD / resizesI / resizesL2 report which caches the normalized
// scenario resizes.
func (sc Scenario) resizesD() bool  { return sc.Sides == BothSides || sc.Sides == DOnly }
func (sc Scenario) resizesI() bool  { return sc.Sides == BothSides || sc.Sides == IOnly }
func (sc Scenario) resizesL2() bool { return sc.L2.Organization != NonResizable }

// appendSweepSpecs appends to dst the profiling sweeps a normalized
// scenario gathers over base — one per resized cache, at most three, so
// a caller passing a three-element buffer allocates nothing.
func (sc Scenario) appendSweepSpecs(dst []experiment.SweepSpec, base *experiment.Baseline) []experiment.SweepSpec {
	if sc.resizesD() {
		dst = append(dst, base.Spec(sc.Benchmark, experiment.DSide, sc.Organization, sc.Strategy == Dynamic))
	}
	if sc.resizesI() {
		dst = append(dst, base.Spec(sc.Benchmark, experiment.ISide, sc.Organization, sc.Strategy == Dynamic))
	}
	if sc.resizesL2() {
		dst = append(dst, base.Spec(sc.Benchmark, experiment.L2Side, sc.L2.Organization, sc.L2.Strategy == Dynamic))
	}
	return dst
}

// sweeps resolves the scenario's profiling sweeps over its baseline
// from bases (nil for a lone scenario), fingerprinting each sweep once.
// Plan execution hands the same resolved sweeps to its enqueue pass and
// to the scenario's gather, so the two agree by construction and a warm
// sweep is fingerprinted once per plan.
func (sc Scenario) sweeps(bases baselines) ([]experiment.Sweep, error) {
	base, err := bases.of(sc)
	if err != nil {
		return nil, err
	}
	var buf [3]experiment.SweepSpec
	specs := sc.appendSweepSpecs(buf[:0], base)
	sweeps := make([]experiment.Sweep, len(specs))
	for i := range specs {
		if sweeps[i], err = specs[i].Resolve(); err != nil {
			return nil, err
		}
	}
	return sweeps, nil
}

// EnergyShares is a processor energy breakdown in percent of total:
// where the chosen configuration's energy went.
type EnergyShares struct {
	CorePct float64
	L1IPct  float64
	L1DPct  float64
	L2Pct   float64 // every shared level below the L1s
	MemPct  float64
}

// Add returns the component-wise sum of two share sets; with Scale it
// supports aggregating shares (e.g. a suite mean) without enumerating
// fields at every call site.
func (e EnergyShares) Add(o EnergyShares) EnergyShares {
	e.CorePct += o.CorePct
	e.L1IPct += o.L1IPct
	e.L1DPct += o.L1DPct
	e.L2Pct += o.L2Pct
	e.MemPct += o.MemPct
	return e
}

// Scale returns the shares multiplied component-wise by f.
func (e EnergyShares) Scale(f float64) EnergyShares {
	e.CorePct *= f
	e.L1IPct *= f
	e.L1DPct *= f
	e.L2Pct *= f
	e.MemPct *= f
	return e
}

// sharesOf converts a breakdown to percentages.
func sharesOf(b energy.Breakdown) EnergyShares {
	t := b.TotalPJ()
	if t == 0 {
		return EnergyShares{}
	}
	return EnergyShares{
		CorePct: 100 * b.CorePJ / t,
		L1IPct:  100 * b.L1IPJ / t,
		L1DPct:  100 * b.L1DPJ / t,
		L2Pct:   100 * b.L2PJ / t,
		MemPct:  100 * b.MemPJ / t,
	}
}

// Outcome reports a scenario's result.
type Outcome struct {
	// EDPReductionPct is the processor energy-delay reduction (%) versus
	// the non-resizable baseline.
	EDPReductionPct float64
	// SlowdownPct is the execution-time increase (%).
	SlowdownPct float64
	// DCacheSizeReductionPct / ICacheSizeReductionPct /
	// L2SizeReductionPct are reductions in time-averaged enabled
	// capacity (%), per cache.
	DCacheSizeReductionPct float64
	ICacheSizeReductionPct float64
	L2SizeReductionPct     float64
	// DChosen / IChosen / L2Chosen describe the selected configurations.
	DChosen  string
	IChosen  string
	L2Chosen string
	// Energy is the chosen configuration's processor energy breakdown.
	Energy EnergyShares
	// Stats reports the runner activity of this call as a delta: the
	// difference between the executing runner's counters after and
	// before the scenario ran. A warm repeat therefore shows zero Runs
	// and positive ArtifactHits rather than an ever-growing cumulative
	// snapshot. On a shared runner (the process-wide one, or a Session
	// running a concurrent plan) the window also includes work submitted
	// by overlapping callers; Session.Stats has the cumulative view.
	Stats runner.Stats
}

// Benchmarks lists the available workload names (the paper's twelve SPEC
// applications).
func Benchmarks() []string { return workload.Names() }

// Simulate runs a scenario: it profiles the requested strategy per the
// paper's methodology (offline sweep, minimum energy-delay product) and
// returns the outcome. All simulations execute through the process-wide
// shared runner, so repeated Simulate calls memoize against each other;
// use a Session for an isolated memo store, or SimulateContext for
// cancellation.
func Simulate(sc Scenario) (Outcome, error) {
	return SimulateContext(context.Background(), sc)
}

// SimulateContext is Simulate with cancellation: a cancelled context
// stops the scenario's profiling sweeps between simulations.
func SimulateContext(ctx context.Context, sc Scenario) (Outcome, error) {
	return simulate(ctx, sc, nil)
}

// Executor is the execution surface shared by the in-process Session
// and the daemon-backed RemoteSession (see Dial): everything the figure
// drivers and CLIs need — plan runs with streaming results, single
// scenarios, plan-level artifact memoization, scheduling stats, and
// store flushing. Code written against Executor runs unchanged whether
// the simulations execute in this process or on a shared simd daemon.
type Executor interface {
	// Run executes a plan and streams results; see Session.Run.
	Run(ctx context.Context, plan Plan, opts ...RunOption) <-chan Result
	// Simulate / SimulateContext run one scenario.
	Simulate(sc Scenario) (Outcome, error)
	SimulateContext(ctx context.Context, sc Scenario) (Outcome, error)
	// Artifact / PutArtifact memoize plan-level derived payloads; see
	// Session.Artifact.
	Artifact(ctx context.Context, domain string, version int, plan Plan, compute func(context.Context) ([]byte, error)) ([]byte, error)
	PutArtifact(domain string, version int, plan Plan, payload []byte)
	// Stats reports scheduling counters. For a RemoteSession they are
	// the daemon's cumulative counters across all clients; diff two
	// snapshots (runner.Stats.Delta) for a per-invocation view.
	Stats() runner.Stats
	// Flush persists the executor's store, if it has one.
	Flush() error
}

var _ Executor = (*Session)(nil)

// Session shares one run-orchestration layer (worker pool, memoized
// result store, and sweep-level artifact cache; see internal/runner)
// across many Simulate and Run calls while staying isolated from the
// process-wide shared runner. Scenarios that overlap — the same
// benchmark under different strategies, or single- and dual-cache
// resizing of the same organization — re-use each other's simulations
// (including the non-resizable baselines) and whole profiling sweeps;
// Run executes a whole Plan as one batch-scheduled pass. The zero
// value is not usable; construct with NewSession or NewSessionWith.
// Safe for concurrent use.
type Session struct {
	r     *runner.Runner
	store runner.Store
}

// NewSession returns a Session with a fresh memo store.
func NewSession() *Session {
	return &Session{r: runner.New(runner.Options{})}
}

// SessionOptions configure a Session's run-orchestration layer.
type SessionOptions struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// StorePath, if non-empty, persists per-config results and sweep
	// artifacts to a JSON store at that path, so a later session (or
	// process) resumes without re-simulating or re-profiling. Call
	// Flush to write it out.
	StorePath string
	// MemoLimit bounds the in-memory memo table, evicting the least
	// recently used results beyond it (0 = unbounded).
	MemoLimit int
	// GangSize bounds how many machines each gang simulation a plan's
	// batch-enqueue pass coalesces starts with: one per share class of
	// same-front-end configurations, each forking where its dynamic
	// controllers disagree (see runner.Options.GangSize; 0 =
	// runner.DefaultGangSize, currently 8; 1 disables coalescing).
	GangSize int
	// Store injects a pluggable persistent backend — e.g. a
	// runner.NetStore dialled to a simd daemon, so this session's
	// simulations run locally but share the daemon's memo fabric.
	// Mutually exclusive with StorePath (which opens a DiskStore).
	Store runner.Store
}

// NewSessionWith returns a Session configured by opts.
func NewSessionWith(opts SessionOptions) (*Session, error) {
	if opts.Store != nil && opts.StorePath != "" {
		return nil, fmt.Errorf("resizecache: SessionOptions.Store and StorePath are mutually exclusive")
	}
	ropts := runner.Options{Workers: opts.Workers, MemoLimit: opts.MemoLimit,
		GangSize: opts.GangSize}
	store := opts.Store
	if opts.StorePath != "" {
		diskStore, err := runner.OpenDiskStore(opts.StorePath)
		if err != nil {
			return nil, err
		}
		store = diskStore
	}
	ropts.Store = store
	return &Session{r: runner.New(ropts), store: store}, nil
}

// Flush writes the session's persistent store, if it has one.
func (s *Session) Flush() error {
	if s.store == nil {
		return nil
	}
	return s.store.Flush()
}

// Simulate is Session-scoped Simulate.
func (s *Session) Simulate(sc Scenario) (Outcome, error) {
	return s.SimulateContext(context.Background(), sc)
}

// SimulateContext is Session-scoped SimulateContext.
func (s *Session) SimulateContext(ctx context.Context, sc Scenario) (Outcome, error) {
	return simulate(ctx, sc, s.r)
}

// Stats reports the session's scheduling counters: how many simulations
// were submitted, how many actually ran, and how many were resolved from
// the memo store or deduplicated in flight.
func (s *Session) Stats() runner.Stats { return s.r.Stats() }

// planArtifactKey fingerprints a derived artifact of a whole plan: the
// caller's domain and schema version plus every scenario's axes and the
// artifact fingerprints of its profiling sweeps (which cover the
// experiment layer's schema version and each sweep's definition) — so
// anything that changes any underlying simulation, the winner-selection
// machinery, or the set of scenarios moves the key. A figure's plan has
// many scenarios over few baselines, so each distinct baseline is built
// and fingerprinted once per call.
func planArtifactKey(domain string, version int, plan Plan) sim.Key {
	bases := make(baselines)
	b := sim.NewKeyBuilder("facade/plan-artifact")
	b.Str(domain)
	b.Int(version)
	b.Int(plan.Len())
	for _, sc := range plan.scenarios {
		b.Str(sc.Benchmark)
		b.U64(uint64(sc.Organization))
		b.U64(uint64(sc.Strategy))
		b.Int(sc.Assoc)
		b.U64(uint64(sc.Sides))
		b.U64(uint64(sc.Hierarchy))
		b.U64(uint64(sc.L2.Organization))
		b.U64(uint64(sc.L2.Strategy))
		b.Int(sc.L2.Assoc)
		var inOrder uint64
		if sc.InOrder {
			inOrder = 1
		}
		b.U64(inOrder)
		b.U64(sc.Instructions)
		b.U64(sc.Sampling.WarmupInstructions)
		b.U64(sc.Sampling.DetailedInstructions)
		b.U64(sc.Sampling.FastForwardInstructions)
		b.U64(sc.Sampling.SkipInstructions)
		base, err := bases.of(sc)
		if err != nil {
			// Only reachable for a scenario that bypassed normalize; give
			// it a key that cannot collide with any valid plan's.
			b.Str("invalid-scenario: " + err.Error())
			continue
		}
		var buf [3]experiment.SweepSpec
		specs := sc.appendSweepSpecs(buf[:0], base)
		for i := range specs {
			k, err := specs[i].ArtifactKey()
			if err != nil {
				b.Str("invalid-sweep: " + err.Error())
				continue
			}
			b.RawKey(k)
		}
	}
	return b.Sum()
}

// Artifact memoizes a derived payload — typically a figure's aggregated
// row set — through the session's two-tier artifact cache (in-memory,
// plus the persistent store when the session has one), keyed by
// (domain, version) and the full content of the plan it aggregates. A
// warm fingerprint returns the cached payload without touching the
// plan's sweeps at all; a cold one runs compute once, with concurrent
// calls for the same fingerprint joining it. Payloads must be valid
// JSON (the store embeds them in JSON documents). The returned slice is
// the caller's to keep: it is a copy, so mutating it cannot corrupt
// later hits.
func (s *Session) Artifact(ctx context.Context, domain string, version int, plan Plan, compute func(context.Context) ([]byte, error)) ([]byte, error) {
	data, err := s.r.Artifact(ctx, planArtifactKey(domain, version, plan), compute)
	if data != nil {
		data = append([]byte(nil), data...)
	}
	return data, err
}

// PutArtifact force-installs a payload under Artifact's fingerprint,
// replacing both tiers. Callers use it to repair a cached payload that
// no longer decodes against their current schema.
func (s *Session) PutArtifact(domain string, version int, plan Plan, payload []byte) {
	s.r.PutArtifact(planArtifactKey(domain, version, plan), payload)
}

func simulate(ctx context.Context, sc Scenario, r *runner.Runner) (Outcome, error) {
	sc, err := sc.normalize()
	if err != nil {
		return Outcome{}, err
	}
	sweeps, err := sc.sweeps(nil)
	if err != nil {
		return Outcome{}, err
	}
	return gather(ctx, sc, sweeps, r, nil)
}

// gather runs (or resolves) a normalized scenario's resolved sweeps and
// combines their winners into its Outcome. Within a plan, comb batches
// the combined run of a scenario that resizes several caches, and such
// a scenario is one of comb's pending arrivals; a lone scenario passes
// nil and runs its combined config directly.
func gather(ctx context.Context, sc Scenario, sweeps []experiment.Sweep, r *runner.Runner, comb *combiner) (Outcome, error) {
	exec := r
	if exec == nil {
		exec = runner.Default()
	}
	before := exec.Stats()
	opts := experiment.Options{Runner: r} // nil selects the shared default runner
	if len(sweeps) < 2 {
		comb = nil
	}
	arrived := false
	defer func() {
		// A scenario that fails before its combined run still arrives,
		// so the plan's batch does not wait for it.
		if comb != nil && !arrived {
			comb.arrive(nil)
		}
	}()

	// Profile each resizing cache alone (the paper's decoupled-profiling
	// protocol, extended over the hierarchy), recording the per-cache
	// outcome fields as the sweeps complete.
	var out Outcome
	// parts lives on the heap: a Best is 952 bytes, and a bigger frame
	// here costs Session.Run's per-scenario goroutines a stack copy.
	parts := make([]experiment.Best, 0, len(sweeps))
	for _, sw := range sweeps {
		best, err := sw.Best(ctx, opts)
		if err != nil {
			return Outcome{}, err
		}
		switch sw.Spec().Side {
		case experiment.DSide:
			out.DCacheSizeReductionPct = best.SizeReductionPct()
			out.DChosen = best.Desc
		case experiment.ISide:
			out.ICacheSizeReductionPct = best.SizeReductionPct()
			out.IChosen = best.Desc
		case experiment.L2Side:
			out.L2SizeReductionPct = best.SizeReductionPct()
			out.L2Chosen = best.Desc
		}
		parts = append(parts, best)
	}

	// One resized cache: its sweep already measured the outcome. More
	// than one: a combined run holds every cache at its individually
	// profiled winner (the paper's additivity experiment shows the
	// resizings compose).
	chosen := parts[0].Chosen
	if len(parts) == 1 {
		out.EDPReductionPct = parts[0].EDPReductionPct()
		out.SlowdownPct = parts[0].SlowdownPct()
	} else {
		c, err := experiment.Combine(sweeps[0].Spec().Base, parts)
		if err != nil {
			return Outcome{}, err
		}
		var res sim.Result
		if comb != nil {
			arrived = true
			res, err = comb.run(ctx, c.Cfg)
		} else {
			res, err = exec.Run(ctx, c.Cfg)
		}
		if err != nil {
			return Outcome{}, err
		}
		both := c.Best(res)
		chosen = both.Chosen
		out.EDPReductionPct = both.EDPReductionPct()
		out.SlowdownPct = both.SlowdownPct()
		if sc.resizesD() {
			out.DCacheSizeReductionPct = chosen.DCache.SizeReductionPct()
		}
		if sc.resizesI() {
			out.ICacheSizeReductionPct = chosen.ICache.SizeReductionPct()
		}
		if sc.resizesL2() {
			out.L2SizeReductionPct = chosen.L2().SizeReductionPct()
		}
	}
	out.Energy = sharesOf(chosen.Energy)
	out.Stats = exec.Stats().Delta(before)
	return out, nil
}
