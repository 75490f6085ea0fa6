package sim

import (
	"fmt"
	"math"
	"slices"

	"resizecache/internal/cpu"
	"resizecache/internal/stats"
	"resizecache/internal/workload"
)

// Interval-sampled execution (SMARTS-style): instead of simulating every
// instruction through the timing and energy models, a sampled run
// alternates short *detailed* windows (full timing + energy, via the
// engines' RunWindow) with long *fast-forward* windows that advance only
// the architectural warm state — the workload stream, the branch
// predictor/BTB/RAS, and the cache tag arrays (cache.Level.Warm) — with
// no timing arithmetic and no energy accounting. Detailed-window
// measurements are then scaled to whole-run estimates, with per-metric
// standard-error bars computed over the per-window samples
// (Result.Sample). The cycle and energy estimates are stratified: the
// first detailed window — which measures the one-off cold-cache
// transient — counts once, and only the steady-state windows
// extrapolate (see windowAccum).
//
// An optional warmup prefix advances only the front-end (not the caches),
// so its end state is a pure function of the config's front-end
// projection; that is what makes warmup checkpoints shareable across
// every configuration with the same FrontKey, and what keeps
// checkpoint-resumed runs bit-identical to cold runs: the caches start
// cold at the first detailed window either way.

// SamplingSpec configures interval-sampled execution. The zero value
// disables sampling (every instruction runs in detail); an enabled spec
// sets both window lengths. A partial spec — exactly one window length,
// or only a warmup — is rejected by Run.
type SamplingSpec struct {
	// WarmupInstructions is the functional prefix executed before the
	// first detailed window: predictors train, caches stay cold. Its end
	// state is checkpointed under WarmKey when a CheckpointStore is
	// provided.
	WarmupInstructions uint64
	// DetailedInstructions is the length of each measured window.
	DetailedInstructions uint64
	// FastForwardInstructions is the length of the functional warming
	// window that immediately precedes each measured window after the
	// first.
	FastForwardInstructions uint64
	// SkipInstructions, when non-zero, widens the gap between windows:
	// after each measured window the stream position jumps by this many
	// instructions (workload.Generator.Skip — O(1) per gap, nothing is
	// generated or warmed) before the fast-forward warming runs. Skipping
	// trades a little warm-state staleness — repaired by the following
	// fast-forward window — for speedup that scales with the gap, where
	// pure fast-forwarding is bounded by event-generation cost.
	SkipInstructions uint64
}

// Enabled reports whether the spec describes a sampled run.
func (s SamplingSpec) Enabled() bool {
	return s.DetailedInstructions > 0 && s.FastForwardInstructions > 0
}

// DefaultSampling is the recommended schedule for benchmark-scale runs
// (hundreds of thousands of instructions and up): 5K-instruction
// measured windows each preceded by 10K instructions of functional
// warming, a 45K-instruction skip per period, and a 10K-instruction
// checkpointable warmup prefix. On the suite's workloads this lands
// whole-run EDP estimates within a few percent of fully detailed runs
// at a 3-5x speedup (BenchmarkSimSampled tracks the ratio). Runs far
// below ~200K instructions should shrink or zero SkipInstructions
// instead, or too few windows remain for useful error bars.
func DefaultSampling() SamplingSpec {
	return SamplingSpec{
		WarmupInstructions:      10_000,
		DetailedInstructions:    5_000,
		FastForwardInstructions: 10_000,
		SkipInstructions:        45_000,
	}
}

// SampleReport describes how a sampled Result was measured. Relative
// standard errors are the standard error of the per-window mean divided
// by the mean — multiply by a z-score for a confidence interval on any
// quantity extrapolated from the corresponding per-window metric.
type SampleReport struct {
	// Windows is the number of detailed windows measured.
	Windows int
	// WarmupInstructions is what the warmup prefix consumed.
	WarmupInstructions uint64
	// DetailedInstructions is the total measured in detail.
	DetailedInstructions uint64
	// TotalInstructions is the whole run the estimates represent
	// (warmup + detailed + fast-forwarded).
	TotalInstructions uint64
	// Scale is TotalInstructions / DetailedInstructions — the factor
	// applied to instruction-proportional event counters. Cycles and
	// energy use the stratified first-window estimator instead (see the
	// package comment), so their effective factors are lower when the
	// first window is cold.
	Scale float64
	// CPIRelStdErr bounds time estimates (cycles), EPIRelStdErr energy
	// estimates, and EDPRelStdErr their product, all relative to the
	// estimate; they are computed over the steady-state windows (2..n).
	// Zero when fewer than three windows were measured — under two
	// steady windows there is no variance information.
	CPIRelStdErr float64
	EPIRelStdErr float64
	EDPRelStdErr float64
}

// WarmupStats reports, out of band of the Result (so memoized results
// stay bit-identical regardless of checkpoint state), what the warmup
// prefix did with the checkpoint store.
type WarmupStats struct {
	// CheckpointHit: the warmup prefix was restored from the store.
	CheckpointHit bool
	// CheckpointSaved: the warmup prefix was computed and recorded.
	CheckpointSaved bool
}

// CheckpointStore persists warmup checkpoints across runs and processes.
// runner.Store satisfies it; payloads are valid JSON, honouring the
// artifact contract of that interface.
type CheckpointStore interface {
	LookupArtifact(k Key) ([]byte, bool)
	RecordArtifact(k Key, data []byte)
}

// checkpointFormatVersion tags the serialized warmup-checkpoint payload.
// Bump it whenever the warm-state layout changes — any field change in
// workload.Snapshot, cpu.FrontEndState, or the bpred state structs, or
// in how encodeCheckpoint writes them — so stale checkpoints miss
// instead of restoring skewed state (see CONTRIBUTING.md).
// Version 2: the binary layout of layout.go replaced JSON.
const checkpointFormatVersion = 2

// checkpointPayload is the serialized post-warmup state: the workload
// generator position and the front-end warm state. Deliberately no cache
// state — the payload must be valid for every config sharing a FrontKey,
// and cache contents are geometry-dependent. encodeCheckpoint and
// decodeCheckpoint (layout.go) give its stored form.
type checkpointPayload struct {
	Version  int
	Consumed uint64 // instructions the prefix consumed
	Gen      workload.Snapshot
	Front    cpu.FrontEndState
}

// WarmKey is the content-addressed checkpoint key: the front-end
// fingerprint (which covers the sampling spec, hence the warmup length)
// plus the checkpoint format version. Every config that can gang with
// this one shares its warmup checkpoint.
func (c Config) WarmKey() Key {
	return NewKeyBuilder("sim.warmup").
		RawKey(c.FrontKey()).
		U64(checkpointFormatVersion).
		Sum()
}

// warmupWithCheckpoint runs the warmup prefix: on a store hit it
// restores the stream position and front-end instead of stepping them;
// on a miss it computes the warm state and records it. Any
// undecodable, shape-mismatched, or wrong-length stored payload falls
// back to a cold warmup (and is overwritten), so a corrupt store can
// never fail a run or move a replay off its recording. The generator
// snapshot and the front-end are both checked before either is
// restored, so a rejected payload leaves nothing restored behind.
// Returns the instructions the prefix consumed.
func warmupWithCheckpoint(cfg Config, prof *workload.Profile, eng *cpu.Gang, st stream, cs CheckpointStore, ws *WarmupStats) uint64 {
	want := cfg.Sampling.WarmupInstructions
	if want == 0 {
		return 0
	}
	key := cfg.WarmKey()
	if cs != nil {
		if data, ok := cs.LookupArtifact(key); ok {
			// A valid prefix consumed exactly what the stream holds of it,
			// and its generator snapshot stands at that position.
			if p, err := decodeCheckpoint(data); err == nil && p.Consumed == min(want, streamLen(prof)) &&
				p.Gen.Instr == p.Consumed && prof.CheckSnapshot(p.Gen) == nil {
				if err := eng.RestoreFrontEnd(p.Front); err == nil {
					st.resume(p)
					ws.CheckpointHit = true
					return p.Consumed
				}
			}
		}
	}
	n := eng.WarmupFrontEnd(st.src, want)
	if cs != nil {
		front, err := eng.SnapshotFrontEnd()
		if err == nil {
			cs.RecordArtifact(key, encodeCheckpoint(&checkpointPayload{
				Version:  checkpointFormatVersion,
				Consumed: n,
				Gen:      st.warmState(),
				Front:    front,
			}))
			ws.CheckpointSaved = true
		}
	}
	return n
}

// integrateTo accrues every level's background energy up to cycle now, so
// a subsequent energyPJ read includes idle energy through that cycle.
func (m *machine) integrateTo(now uint64) {
	m.dc.c.IntegrateIdleTo(now)
	m.ic.c.IntegrateIdleTo(now)
	for _, b := range m.shared {
		b.c.IntegrateIdleTo(now)
	}
}

// energyPJ sums the memory system's accumulated energy: switching plus
// background through the last integrateTo cycle. (Memories have no
// clocked idle energy, so no integration step for them.)
func (m *machine) energyPJ() float64 {
	pj := m.dc.c.EnergyPJ() + m.ic.c.EnergyPJ()
	for _, b := range m.shared {
		pj += b.c.EnergyPJ()
	}
	for _, mem := range m.mems {
		pj += mem.EnergyPJ()
	}
	return pj
}

// windowAccum accumulates one machine's detailed windows: the summed
// cpu.Result, the chained clock base, and the per-window CPI/EPI samples
// the estimator and its error bars derive from.
//
// The first detailed window is special: the warmup prefix warms only the
// front-end, so window 1 runs against cold caches and measures the
// one-off cache warmup transient — which the full run also pays exactly
// once. The estimator therefore treats window 1 as its own stratum,
// counted once and never extrapolated, and extrapolates only the
// steady-state windows (2..n, whose caches the fast-forward warming
// keeps representative) over the rest of the run. Extrapolating the
// cold window like the others would multiply the transient by the scale
// factor and overestimate small runs severely.
type windowAccum struct {
	m      *machine
	agg    cpu.Result
	base   uint64
	prevPJ float64
	cpi    []float64
	epi    []float64

	// Window 1 (the cold-start stratum), recorded at the first observe.
	firstInstr  uint64
	firstCycles uint64
	firstPJ     float64
}

// fork is a copy of w for a machine forked from w's mid-window: the
// windows measured so far are the fork's too.
func (w *windowAccum) fork(m *machine) windowAccum {
	f := *w
	f.m = m
	f.cpi = slices.Clone(w.cpi)
	f.epi = slices.Clone(w.epi)
	return f
}

// observe folds one detailed window's result in. Window energy is the
// machine's energy delta (after integrating background energy to the
// window's end cycle) plus the core energy of the window's activity.
func (w *windowAccum) observe(cfg Config, r cpu.Result) {
	winCycles := r.Cycles - w.base
	w.m.integrateTo(r.Cycles)
	nowPJ := w.m.energyPJ()
	winPJ := nowPJ - w.prevPJ + cfg.Core.CorePJ(r.Activity, r.Instructions, winCycles)
	w.prevPJ = nowPJ
	instr := float64(r.Instructions)
	w.cpi = append(w.cpi, float64(winCycles)/instr)
	w.epi = append(w.epi, winPJ/instr)
	if len(w.cpi) == 1 {
		w.firstInstr = r.Instructions
		w.firstCycles = winCycles
		w.firstPJ = winPJ
	}
	w.agg.Instructions += r.Instructions
	w.agg.Activity.Add(r.Activity)
	w.agg.Cycles = r.Cycles // absolute end of the latest window
	w.agg.BranchAccuracy = r.BranchAccuracy
	w.base = r.Cycles
}

// finish scales the detailed aggregate to a whole-run estimate of total
// instructions and attaches the SampleReport.
//
// Cycles and energy use the stratified estimator described on
// windowAccum: window 1's measurement counts once, the steady windows'
// mean CPI/EPI extrapolates over everything else. Event counters (cache
// accesses, activity events) are instruction-proportional and scale
// uniformly by total/detailed.
func (w *windowAccum) finish(cfg Config, total, warmup uint64) (Result, error) {
	if w.agg.Instructions == 0 {
		return Result{}, fmt.Errorf("sim: %s: no detailed instructions measured (stream exhausted before the first window)", cfg.Benchmark)
	}
	full := w.m.finish(cfg, w.agg)
	detCycles := float64(w.agg.Cycles) // windows chain, so this is Σ window cycles
	detPJ := full.Energy.TotalPJ()
	countScale := float64(total) / float64(w.agg.Instructions)

	var cyclesEst, pjEst, cpiSE, epiSE float64
	if len(w.cpi) >= 2 {
		rest := float64(total - w.firstInstr)
		cyclesEst = float64(w.firstCycles) + rest*mean(w.cpi[1:])
		pjEst = w.firstPJ + rest*mean(w.epi[1:])
		// Error bars cover the extrapolated stratum; applying them to the
		// whole estimate (which includes the exactly-measured window 1) is
		// slightly conservative.
		cpiSE = relStdErr(w.cpi[1:])
		epiSE = relStdErr(w.epi[1:])
	} else {
		cyclesEst = detCycles * countScale
		pjEst = detPJ * countScale
	}

	res := scaleResult(full, countScale, pjEst/detPJ)
	res.CPU.Cycles = uint64(cyclesEst + 0.5)
	res.CPU.Instructions = total
	res.EDP = stats.EDP{EnergyJ: res.Energy.TotalJ(), Cycles: res.CPU.Cycles}
	res.Sample = &SampleReport{
		Windows:              len(w.cpi),
		WarmupInstructions:   warmup,
		DetailedInstructions: w.agg.Instructions,
		TotalInstructions:    total,
		Scale:                countScale,
		CPIRelStdErr:         cpiSE,
		EPIRelStdErr:         epiSE,
		EDPRelStdErr:         math.Sqrt(cpiSE*cpiSE + epiSE*epiSE),
	}
	return res, nil
}

// mean of a non-empty sample slice.
func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// scaleCount rounds v*s half-up.
func scaleCount(v uint64, s float64) uint64 { return uint64(float64(v)*s + 0.5) }

// scaleCacheReport scales the extensive counters by counts and the
// energies by energy; ratios, capacities, and the resize trace are
// intensive and pass through.
func scaleCacheReport(c CacheReport, counts, energy float64) CacheReport {
	c.Accesses = scaleCount(c.Accesses, counts)
	c.Resizes = scaleCount(c.Resizes, counts)
	c.FlushedBlocks = scaleCount(c.FlushedBlocks, counts)
	c.EnergyPJ *= energy
	c.SwitchingPJ *= energy
	c.BackgroundPJ *= energy
	return c
}

// scaleResult extrapolates a detailed-window aggregate to the whole run:
// event counts scale by counts, energies by energy (the stratified
// estimate's ratio), intensive quantities (ratios, averages, accuracies)
// pass through. Cycles, EDP, and Instructions are set by the caller.
func scaleResult(r Result, counts, energy float64) Result {
	r.CPU.Activity = r.CPU.Activity.Scaled(counts)
	r.Energy.CorePJ *= energy
	r.Energy.L1IPJ *= energy
	r.Energy.L1DPJ *= energy
	r.Energy.L2PJ *= energy
	r.Energy.MemPJ *= energy
	r.DCache = scaleCacheReport(r.DCache, counts, energy)
	r.ICache = scaleCacheReport(r.ICache, counts, energy)
	for i := range r.Levels {
		r.Levels[i].CacheReport = scaleCacheReport(r.Levels[i].CacheReport, counts, energy)
	}
	return r
}

// relStdErr returns the standard error of the mean relative to the mean,
// using the sample standard deviation. Under two samples there is no
// variance information; callers see zero and Windows==1.
func relStdErr(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	se := math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
	return se / mean
}

// sampleSteps are the moves a sampling schedule makes over one
// stream. Each consumes up to n instructions and returns how many it
// consumed.
type sampleSteps interface {
	window(n uint64) uint64
	skip(n uint64) uint64
	fastForward(n uint64) uint64
}

// sampleSchedule is the one sampling schedule, driven from stream
// position at (the end of the warmup prefix) to the instruction budget
// or the end of the stream: a measured window, then the gap to the next
// window — an optional O(1) skip, then functional warming right before
// the measurement so the window sees representative cache and predictor
// state — and again. A sampled run drives it with the engine, a
// recording pass with a recorder, and a dry pass with a counter that
// sizes the recording. Returns the stream position reached.
func sampleSchedule(spec SamplingSpec, budget, at uint64, st sampleSteps) uint64 {
	total := at
	for total < budget {
		n := st.window(min(spec.DetailedInstructions, budget-total))
		if n == 0 {
			break // stream exhausted
		}
		total += n
		if total >= budget {
			break
		}
		if sk := min(spec.SkipInstructions, budget-total); sk > 0 {
			n := st.skip(sk)
			total += n
			if n < sk {
				break // stream exhausted
			}
		}
		ff := min(spec.FastForwardInstructions, budget-total)
		n = st.fastForward(ff)
		total += n
		if n < ff {
			break // stream exhausted; nothing left for another window
		}
	}
	return total
}

// window, skip and fastForward are a sampled pass's moves: detailed
// windows measured into every machine's windowAccum, skips on the
// stream, fast-forwards through the engine.
func (p *pass) window(n uint64) uint64 {
	rs := p.eng.RunWindow(p.src, n, p.base)
	if rs[0].Instructions == 0 {
		return 0
	}
	// Machines forked during the window joined accs and base with
	// their parents' windows so far.
	for i := range p.accs {
		sr := p.runs[i]
		p.accs[i].observe(p.cfgs[sr.lead], rs[i])
		p.base[i] = rs[i].Cycles
	}
	return rs[0].Instructions
}

func (p *pass) skip(n uint64) uint64        { return p.src.Skip(n) }
func (p *pass) fastForward(n uint64) uint64 { return p.eng.FastForward(p.src, n) }

// runSampled runs a sampled pass over st: the warmup prefix
// (checkpointed), then the sampling schedule. It returns each machine's
// Result in engine member order.
func (p *pass) runSampled(prof *workload.Profile, st stream, cs CheckpointStore, ws *WarmupStats) ([]Result, error) {
	cfg0 := p.cfgs[p.runs[0].lead]
	consumed := warmupWithCheckpoint(cfg0, prof, p.eng, st, cs, ws)
	p.src = st.src
	p.accs = make([]windowAccum, len(p.runs))
	p.base = make([]uint64, len(p.runs))
	for i, sr := range p.runs {
		p.accs[i].m = sr.m
	}
	total := sampleSchedule(cfg0.Sampling, cfg0.Instructions, consumed, p)
	out := make([]Result, len(p.accs))
	for i := range p.accs {
		res, err := p.accs[i].finish(p.cfgs[p.runs[i].lead], total, consumed)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
