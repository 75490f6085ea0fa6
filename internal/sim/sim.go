// Package sim wires the substrates into a complete simulated processor —
// workload generator → CPU engine → resizable L1 i-/d-caches → a
// declaratively described shared hierarchy (unified L2, optionally
// deeper levels, optionally none) → memory — runs it, and reports
// timing, energy breakdown, and resizing behaviour. One Config describes
// one simulation; experiments (internal/experiment) run many configs in
// parallel.
package sim

import (
	"fmt"
	"slices"

	"resizecache/internal/cache"
	"resizecache/internal/core"
	"resizecache/internal/cpu"
	"resizecache/internal/energy"
	"resizecache/internal/geometry"
	"resizecache/internal/stats"
	"resizecache/internal/workload"
)

// EngineKind selects the processor timing model.
type EngineKind int

const (
	// OutOfOrder is the base configuration: 4-wide OoO with a
	// non-blocking d-cache (8 MSHRs).
	OutOfOrder EngineKind = iota
	// InOrder is the latency-exposing configuration: in-order issue with
	// a blocking d-cache.
	InOrder
)

func (e EngineKind) String() string {
	if e == InOrder {
		return "in-order"
	}
	return "out-of-order"
}

// PolicyKind selects the resizing strategy for one cache.
type PolicyKind int

const (
	// PolicyNone keeps the cache at full size (baseline).
	PolicyNone PolicyKind = iota
	// PolicyStatic fixes one profiled schedule point for the run.
	PolicyStatic
	// PolicyDynamic applies the miss-ratio interval controller.
	PolicyDynamic
)

// PolicySpec instantiates a resizing policy.
type PolicySpec struct {
	Kind PolicyKind
	// StaticIndex is the schedule point for PolicyStatic.
	StaticIndex int
	// Interval (accesses), MissBound, SizeBoundBytes, and
	// UpsizeHoldIntervals parameterize PolicyDynamic.
	Interval            uint64
	MissBound           uint64
	SizeBoundBytes      int
	UpsizeHoldIntervals int
}

func (p PolicySpec) build() core.Policy {
	switch p.Kind {
	case PolicyStatic:
		return &core.StaticPolicy{PointIndex: p.StaticIndex}
	case PolicyDynamic:
		return &core.DynamicPolicy{Interval: p.Interval, MissBound: p.MissBound,
			SizeBoundBytes: p.SizeBoundBytes, UpsizeHoldIntervals: p.UpsizeHoldIntervals}
	default:
		return nil
	}
}

// CacheSpec configures one resizable cache: its geometry, resizing
// organization, and policy. The L1s use it directly; LevelSpec embeds it
// for the shared levels.
type CacheSpec struct {
	Geom   geometry.Geometry
	Org    core.Organization
	Policy PolicySpec

	// Ablation switches (benchmark-only; see cache.Config).
	AblationFullPrecharge bool
	AblationFreeFlush     bool
}

// resizable reports whether the spec needs the resizing machinery at
// all; a non-resizable spec with no policy builds a plain cache array.
func (s CacheSpec) resizable() bool {
	return s.Org != core.NonResizable || s.Policy.Kind != PolicyNone
}

// PrechargeMode selects a level's precharge organization (paper §3).
type PrechargeMode int

const (
	// PrechargeDelayed precharges only the accessed subarrays, trading
	// access time for energy — the organization shared lower levels use.
	// This is the zero value: a zero LevelSpec behaves like the
	// conventional L2.
	PrechargeDelayed PrechargeMode = iota
	// PrechargeFull precharges every enabled subarray before decode, as
	// the latency-critical L1s do.
	PrechargeFull
)

func (m PrechargeMode) String() string {
	if m == PrechargeFull {
		return "full-precharge"
	}
	return "delayed-precharge"
}

// LevelSpec describes one shared cache level below the split L1s: a
// full CacheSpec (geometry, organization, resizing policy, ablations)
// plus the per-level structural knobs. The hierarchy is data — sim.Run
// builds whatever chain Levels describes, so a resizable L2, a deeper
// L2+L3 stack, and an L1-only machine are all just configs.
type LevelSpec struct {
	CacheSpec

	// Precharge selects the level's precharge organization; the zero
	// value is the shared-level default (delayed precharge).
	Precharge PrechargeMode
	// MSHREntries > 0 makes the level non-blocking; 0 (the default)
	// models the conventional blocking lower level.
	MSHREntries int
	// WritebackEntries sizes the level's writeback buffer (0 = none).
	WritebackEntries int
}

// Config is one complete simulation description.
type Config struct {
	Benchmark    string
	Instructions uint64
	Engine       EngineKind
	CPU          cpu.Config

	DCache CacheSpec
	ICache CacheSpec

	// Levels describes the shared hierarchy below the split L1s,
	// outermost first: Levels[0] is the L2, Levels[1] an L3, and so on.
	// An empty hierarchy connects the L1s straight to memory.
	Levels []LevelSpec

	MSHREntries      int // d-cache MSHRs for the OoO engine
	WritebackEntries int

	Energy geometry.EnergyModel
	Core   energy.CoreEnergies

	// Sampling, when enabled, switches Run to interval-sampled execution:
	// short detailed windows alternate with long functional fast-forward
	// windows, and detailed measurements are scaled to whole-run estimates
	// with standard-error bars (Result.Sample). The zero value runs every
	// instruction in detail. See sample.go.
	Sampling SamplingSpec
}

// Default returns the paper's base configuration (Table 2) for a
// benchmark: 32K 2-way L1s, 512K 4-way L2, 4-wide OoO, 2M instructions.
func Default(benchmark string) Config {
	l1 := geometry.Geometry{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 32, SubarrayBytes: 1 << 10}
	return Config{
		Benchmark:    benchmark,
		Instructions: 2_000_000,
		Engine:       OutOfOrder,
		CPU:          cpu.DefaultConfig(),
		DCache:       CacheSpec{Geom: l1, Org: core.NonResizable},
		ICache:       CacheSpec{Geom: l1, Org: core.NonResizable},
		Levels: []LevelSpec{{CacheSpec: CacheSpec{
			Geom: geometry.Geometry{SizeBytes: 512 << 10, Assoc: 4,
				BlockBytes: 64, SubarrayBytes: 4 << 10},
			Org: core.NonResizable,
		}}},
		MSHREntries:      8,
		WritebackEntries: 8,
		Energy:           geometry.Default18um(),
		Core:             energy.DefaultCore(),
	}
}

// CacheReport summarizes one cache's behaviour during a run.
type CacheReport struct {
	Accesses      uint64
	MissRatio     float64
	AvgBytes      float64 // time-weighted average enabled capacity
	FullBytes     int
	Resizes       uint64
	FlushedBlocks uint64
	SizeTrace     []int
	EnergyPJ      float64
	// SwitchingPJ / BackgroundPJ split EnergyPJ into per-access energy
	// and clock+leakage energy (the component the paper's §3 leakage
	// argument applies to).
	SwitchingPJ  float64
	BackgroundPJ float64
}

// SizeReductionPct is the paper's "reduction in average cache size".
func (c CacheReport) SizeReductionPct() float64 {
	if c.FullBytes == 0 {
		return 0
	}
	return 100 * (1 - c.AvgBytes/float64(c.FullBytes))
}

// LevelReport is one shared level's report.
type LevelReport struct {
	Name string // "L2", "L3", ...
	CacheReport
}

// Result is one simulation's complete outcome.
type Result struct {
	CPU    cpu.Result
	Energy energy.Breakdown
	EDP    stats.EDP
	DCache CacheReport
	ICache CacheReport
	// Levels reports the shared hierarchy, outermost (L2) first; empty
	// when the L1s connect straight to memory.
	Levels []LevelReport

	// Sample describes how the result was measured when the run used
	// interval sampling: window counts, the extrapolation factor, and
	// per-metric standard-error bars. Nil for fully detailed runs.
	Sample *SampleReport `json:",omitempty"`
}

// L2 returns the outermost shared level's report (the zero report when
// the hierarchy is empty).
func (r Result) L2() CacheReport {
	if len(r.Levels) == 0 {
		return CacheReport{}
	}
	return r.Levels[0].CacheReport
}

// clone returns a copy of r that shares no memory with it.
func (r Result) clone() Result {
	r.DCache.SizeTrace = slices.Clone(r.DCache.SizeTrace)
	r.ICache.SizeTrace = slices.Clone(r.ICache.SizeTrace)
	r.Levels = slices.Clone(r.Levels)
	for i := range r.Levels {
		r.Levels[i].SizeTrace = slices.Clone(r.Levels[i].SizeTrace)
	}
	if r.Sample != nil {
		s := *r.Sample
		r.Sample = &s
	}
	return r
}

// reportCache summarizes one built cache array; trace is the resizing
// size trace, nil for non-resizable levels.
func reportCache(c *cache.Cache, trace []int) CacheReport {
	return CacheReport{
		Accesses:      c.Stat.Accesses.Value(),
		MissRatio:     c.Stat.MissRatio(),
		AvgBytes:      c.AvgEnabledBytes(),
		FullBytes:     c.Config().Geom.SizeBytes,
		Resizes:       c.Stat.Resizes.Value(),
		FlushedBlocks: c.Stat.FlushedBlocks.Value(),
		SizeTrace:     trace,
		EnergyPJ:      c.EnergyPJ(),
		SwitchingPJ:   c.SwitchingPJ(),
		BackgroundPJ:  c.BackgroundPJ(),
	}
}

// builtLevel is one constructed shared level: the raw array plus the
// resizable wrapper when the spec asked for one.
type builtLevel struct {
	name  string
	c     *cache.Cache
	r     *core.ResizableCache // nil for plain levels
	level cache.Level          // what the level above connects to
}

func (b builtLevel) report() LevelReport {
	var trace []int
	if b.r != nil {
		trace = b.r.SizeTrace
	}
	return LevelReport{Name: b.name, CacheReport: reportCache(b.c, trace)}
}

// buildHierarchy constructs the shared levels over mem, innermost
// first, and returns them outermost first along with the level the L1s
// connect to.
func buildHierarchy(specs []LevelSpec, em geometry.EnergyModel, mem cache.Level) ([]builtLevel, cache.Level, error) {
	built := make([]builtLevel, len(specs))
	next := mem
	for i := len(specs) - 1; i >= 0; i-- {
		spec := specs[i]
		name := fmt.Sprintf("L%d", i+2)
		lat := uint64(geometry.AccessLatencyCycles(spec.Geom))
		if spec.resizable() {
			r, err := core.NewResizable(core.Options{
				Name: name, Geom: spec.Geom, Org: spec.Org,
				Policy: spec.Policy.build(), HitLatency: lat,
				MSHREntries: spec.MSHREntries, WritebackEntries: spec.WritebackEntries,
				Energy:                em,
				DelayedPrecharge:      spec.Precharge == PrechargeDelayed,
				AblationFullPrecharge: spec.AblationFullPrecharge,
				AblationFreeFlush:     spec.AblationFreeFlush,
			}, next)
			if err != nil {
				return nil, nil, fmt.Errorf("sim: %s: %w", name, err)
			}
			built[i] = builtLevel{name: name, c: r.C, r: r, level: r}
		} else {
			// core.NewResizable could build this too (one-point schedule),
			// but a fixed level skips the wrapper so the hierarchy's hot
			// path pays no per-access interval accounting for a cache that
			// never resizes.
			c, err := cache.New(cache.Config{
				Name: name, Geom: spec.Geom, HitLatency: lat,
				Energy:                em,
				MSHREntries:           spec.MSHREntries,
				WritebackEntries:      spec.WritebackEntries,
				DelayedPrecharge:      spec.Precharge == PrechargeDelayed,
				AblationFullPrecharge: spec.AblationFullPrecharge,
				AblationFreeFlush:     spec.AblationFreeFlush,
			}, next)
			if err != nil {
				return nil, nil, fmt.Errorf("sim: %s: %w", name, err)
			}
			built[i] = builtLevel{name: name, c: c, level: c}
		}
		next = built[i].level
	}
	return built, next, nil
}

// validated resolves the config's workload profile and rejects
// structurally invalid configs.
func validated(cfg Config) (*workload.Profile, error) {
	prof, err := workload.Get(cfg.Benchmark)
	if err != nil {
		return nil, err
	}
	if cfg.Instructions == 0 {
		return nil, fmt.Errorf("sim: zero instruction budget")
	}
	if s := cfg.Sampling; s != (SamplingSpec{}) {
		if !s.Enabled() {
			return nil, fmt.Errorf("sim: partial sampling spec %+v: both DetailedInstructions and FastForwardInstructions must be set", s)
		}
		if s.WarmupInstructions >= cfg.Instructions {
			return nil, fmt.Errorf("sim: warmup %d consumes the whole %d-instruction budget", s.WarmupInstructions, cfg.Instructions)
		}
	}
	return prof, nil
}

// machine is one config's built memory system — the split L1s, the
// shared hierarchy, and the memories behind them. RunGang builds one
// machine per share group and drives them all from one engine pass.
type machine struct {
	dc, ic builtLevel
	shared []builtLevel
	mems   []*cache.Memory
}

// buildMachine constructs the config's memory system.
func buildMachine(cfg Config) (*machine, error) {
	levels := cfg.Levels
	// Memory transfers its client's block: the innermost shared level's
	// when the hierarchy has one, otherwise one memory per L1 (the two
	// L1s may use different block sizes, so a shared transfer size would
	// mis-bill one of them).
	var mems []*cache.Memory
	newMem := func(blockBytes int) *cache.Memory {
		m := cache.NewMemory(blockBytes)
		mems = append(mems, m)
		return m
	}
	var shared []builtLevel
	var dNext, iNext cache.Level
	if n := len(levels); n > 0 {
		var err error
		var l1Next cache.Level
		shared, l1Next, err = buildHierarchy(levels, cfg.Energy, newMem(levels[n-1].Geom.BlockBytes))
		if err != nil {
			return nil, err
		}
		dNext, iNext = l1Next, l1Next
	} else {
		dNext = newMem(cfg.DCache.Geom.BlockBytes)
		iNext = newMem(cfg.ICache.Geom.BlockBytes)
	}

	// The L1s get the same treatment buildHierarchy gives shared levels:
	// a resizable spec builds the full wrapper, a fixed spec connects the
	// engine straight to the plain array so the per-access hot path pays
	// no interval accounting for a cache that never resizes.
	buildL1 := func(spec CacheSpec, name string, mshr, wbEntries int, next cache.Level) (builtLevel, error) {
		if spec.resizable() {
			r, err := core.NewResizable(core.Options{
				Name: name, Geom: spec.Geom, Org: spec.Org,
				Policy: spec.Policy.build(), HitLatency: 1,
				MSHREntries: mshr, WritebackEntries: wbEntries,
				Energy:                cfg.Energy,
				AblationFullPrecharge: spec.AblationFullPrecharge,
				AblationFreeFlush:     spec.AblationFreeFlush,
			}, next)
			if err != nil {
				return builtLevel{}, err
			}
			return builtLevel{name: name, c: r.C, r: r, level: r}, nil
		}
		c, err := cache.New(cache.Config{
			Name: name, Geom: spec.Geom, HitLatency: 1,
			Energy:                cfg.Energy,
			MSHREntries:           mshr,
			WritebackEntries:      wbEntries,
			AblationFullPrecharge: spec.AblationFullPrecharge,
			AblationFreeFlush:     spec.AblationFreeFlush,
		}, next)
		if err != nil {
			return builtLevel{}, err
		}
		return builtLevel{name: name, c: c, level: c}, nil
	}

	dMSHR := cfg.MSHREntries
	if cfg.Engine == InOrder {
		dMSHR = 0 // blocking d-cache
	}
	dc, err := buildL1(cfg.DCache, "L1d", dMSHR, cfg.WritebackEntries, dNext)
	if err != nil {
		return nil, fmt.Errorf("sim: d-cache: %w", err)
	}
	ic, err := buildL1(cfg.ICache, "L1i", 2, 0, iNext)
	if err != nil {
		return nil, fmt.Errorf("sim: i-cache: %w", err)
	}
	return &machine{dc: dc, ic: ic, shared: shared, mems: mems}, nil
}

// blankMachine builds a fresh machine of cfg's shape for a snapshot or
// a fork to copy a running one into (copyFrom). cfg built a machine
// before, so building it again cannot fail.
func blankMachine(cfg Config) *machine {
	m, err := buildMachine(cfg)
	if err != nil {
		panic("sim: rebuilding a machine failed: " + err.Error())
	}
	return m
}

// copyFrom makes m's state a copy of src's, level by level; both must
// have been built from configs of one share class. Policies stay put:
// each machine keeps its own.
func (m *machine) copyFrom(src *machine) {
	m.dc.copyFrom(src.dc)
	m.ic.copyFrom(src.ic)
	for i := range m.shared {
		m.shared[i].copyFrom(src.shared[i])
	}
	for i, mem := range m.mems {
		*mem = *src.mems[i]
	}
}

// copyFrom copies src's state into b.
func (b builtLevel) copyFrom(src builtLevel) {
	if b.r != nil {
		b.r.CopyFrom(src.r)
		return
	}
	b.c.CopyFrom(src.c)
}

// release returns the machine's frame arrays for reuse; the machine is
// dead afterwards, though its reports stay readable.
func (m *machine) release() {
	m.dc.c.Release()
	m.ic.c.Release()
	for _, b := range m.shared {
		b.c.Release()
	}
}

// Machine positions of the caches (see levelAt): the d-cache, the
// i-cache and the outermost shared level, the L2.
const (
	dPos  = 0
	iPos  = 1
	l2Pos = 2
)

// levelAt returns the cache at machine position i: 0 the d-cache, 1 the
// i-cache, 2+i the shared level i (see Config.dynamicLevel).
func (m *machine) levelAt(i int) builtLevel {
	switch i {
	case 0:
		return m.dc
	case 1:
		return m.ic
	}
	return m.shared[i-2]
}

// finish finalizes the machine's levels at the run's end time and
// assembles the complete Result from the engine's timing outcome. It
// then returns the caches' frame arrays for reuse: the machine is dead
// once finish returns.
func (m *machine) finish(cfg Config, res cpu.Result) Result {
	m.dc.level.Finalize(res.Cycles)
	m.ic.level.Finalize(res.Cycles)
	var sharedPJ float64
	levelReports := make([]LevelReport, len(m.shared))
	for i, b := range m.shared {
		b.level.Finalize(res.Cycles)
		levelReports[i] = b.report()
		sharedPJ += b.c.EnergyPJ()
	}
	var memPJ float64
	for _, mem := range m.mems {
		mem.Finalize(res.Cycles)
		memPJ += mem.EnergyPJ()
	}

	bd := energy.Breakdown{
		CorePJ: cfg.Core.CorePJ(res.Activity, res.Instructions, res.Cycles),
		L1IPJ:  m.ic.c.EnergyPJ(),
		L1DPJ:  m.dc.c.EnergyPJ(),
		L2PJ:   sharedPJ, // every shared level below the L1s
		MemPJ:  memPJ,
	}

	out := Result{
		CPU:    res,
		Energy: bd,
		EDP:    stats.EDP{EnergyJ: bd.TotalJ(), Cycles: res.Cycles},
		DCache: m.dc.report().CacheReport,
		ICache: m.ic.report().CacheReport,
		Levels: levelReports,
	}
	m.release()
	return out
}

// Run executes one simulation: a gang of one (see RunGang).
func Run(cfg Config) (Result, error) {
	res, _, err := RunWithCheckpoints(cfg, nil)
	return res, err
}

// RunWithCheckpoints executes one simulation against an optional warmup
// checkpoint store (nil behaves exactly like Run). For sampled configs
// with a warmup prefix, a store hit restores the front-end warm state
// instead of recomputing it, and a miss records the computed state under
// cfg.WarmKey() for later runs; the Result is bit-identical either way.
// The returned WarmupStats says which of the two happened.
func RunWithCheckpoints(cfg Config, cs CheckpointStore) (Result, WarmupStats, error) {
	out, ws, err := RunGangWithCheckpoints([]Config{cfg}, cs)
	if err != nil {
		return Result{}, ws, err
	}
	return out[0], ws, nil
}
