package main

import (
	"flag"
	"fmt"
	"testing"

	"resizecache"
	"resizecache/internal/bpred"
	"resizecache/internal/cache"
	"resizecache/internal/cpu"
	"resizecache/internal/experiment"
	"resizecache/internal/geometry"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/workload"
)

// Layer probes time one layer each, on a workload's own apps and
// instruction budget, as testing.B functions: BenchmarkProbes runs them
// under go test, and a traced run runs them through testing.Benchmark to
// produce the sim, cpu, cache, bpred and workload figures and the
// per-instruction budget.

// probeEvents is the length of each app's pre-generated event slice.
const probeEvents = 20_000

// probeEnv holds the inputs every probe shares, built once.
type probeEnv struct {
	apps     []string
	instr    uint64
	sampling resizecache.SamplingSpec

	events  [][]workload.Event // per app
	dstream []workload.Event   // every app's loads and stores
	control []workload.Event   // every app's branches, calls and returns
	base    []sim.Config       // per app: the non-resizable out-of-order base
	specs   []experiment.SweepSpec
}

func newProbeEnv(apps []string, instr uint64, sampling resizecache.SamplingSpec, g resizecache.Grid) *probeEnv {
	e := &probeEnv{apps: apps, instr: instr, sampling: sampling}
	for _, app := range apps {
		gen := workload.NewGenerator(workload.MustGet(app))
		evs := make([]workload.Event, probeEvents)
		for i := range evs {
			gen.Next(&evs[i])
			switch evs[i].Kind {
			case workload.KindLoad, workload.KindStore:
				e.dstream = append(e.dstream, evs[i])
			case workload.KindBranch, workload.KindCall, workload.KindReturn:
				e.control = append(e.control, evs[i])
			}
		}
		e.events = append(e.events, evs)
		cfg := sim.Default(app)
		cfg.Instructions = instr
		e.base = append(e.base, cfg)
	}
	// The grid's profiling sweeps, as the facade builds them.
	for _, app := range apps {
		for _, engine := range g.Engines {
			opts := experiment.Options{Instructions: instr, Engine: sim.OutOfOrder}
			if engine == resizecache.InOrderEngine {
				opts.Engine = sim.InOrder
			}
			for _, side := range []experiment.Side{experiment.DSide, experiment.ISide} {
				for _, org := range g.Organizations {
					for _, st := range g.Strategies {
						spec := experiment.NewSweepSpec(app, side, org, 2, st == resizecache.Dynamic, opts)
						spec.Base.Sampling = g.Sampling
						e.specs = append(e.specs, spec)
					}
				}
			}
		}
	}
	return e
}

type probe struct {
	name string
	f    func(b *testing.B)
}

func (e *probeEnv) probes() []probe {
	ps := []probe{
		{"CacheAccess/hit", e.cacheAccessHit},
		{"CacheAccess/miss", e.cacheAccessMiss},
		{"CacheWarm", e.cacheWarm},
		{"FrontEnd", e.frontEnd},
		{"EngineStep/ooo", func(b *testing.B) { e.engineStep(b, sim.OutOfOrder, false) }},
		{"EngineStep/inorder", func(b *testing.B) { e.engineStep(b, sim.InOrder, false) }},
		{"EngineStep/fastforward", func(b *testing.B) { e.engineStep(b, sim.OutOfOrder, true) }},
		{"GangMember/solo", e.solo},
	}
	for _, n := range gangSizes {
		ps = append(ps, probe{fmt.Sprintf("GangMember/%d", n), func(b *testing.B) { e.gang(b, n) }})
	}
	return append(ps,
		probe{"WorkloadNext", e.workloadNext},
		probe{"WorkloadSkip", e.workloadSkip},
		probe{"ConfigKey", e.configKey},
		probe{"SweepArtifactKey", e.sweepArtifactKey},
		probe{"SampledCheckpoint/cold", func(b *testing.B) { e.sampled(b, false) }},
		probe{"SampledCheckpoint/warm", func(b *testing.B) { e.sampled(b, true) }},
	)
}

var gangSizes = []int{1, 2, 4, 8}

// fixedLevel is a memory level with a constant latency and no state: the
// stub the cache probes fill from and the engine probes fetch and load
// through, so their cost excludes the memory system.
type fixedLevel struct{ lat uint64 }

func (l fixedLevel) Access(now, _ uint64, _ bool) uint64 { return now + l.lat }
func (fixedLevel) Warm(uint64, bool)                     {}
func (fixedLevel) Finalize(uint64)                       {}
func (fixedLevel) EnergyPJ() float64                     { return 0 }

// newL1 builds the base configuration's 32K 2-way data cache over the
// stub.
func newL1(b *testing.B) *cache.Cache {
	c, err := cache.New(cache.Config{Name: "L1d",
		Geom:       geometry.Geometry{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 32, SubarrayBytes: 1 << 10},
		HitLatency: 1, Energy: geometry.Default18um(), MSHREntries: 8, WritebackEntries: 8},
		fixedLevel{lat: 20})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// perElement reports the mean time per element over b.N operations of
// n elements each.
func perElement(b *testing.B, n int, unit string) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), unit)
}

// cacheAccessHit replays the apps' recorded d-stream through a cache
// already warmed by it, so nearly every access hits.
func (e *probeEnv) cacheAccessHit(b *testing.B) {
	c := newL1(b)
	for _, ev := range e.dstream {
		c.Warm(ev.Addr, ev.Kind == workload.KindStore)
	}
	b.ResetTimer()
	var now uint64
	for i := 0; i < b.N; i++ {
		ev := &e.dstream[i%len(e.dstream)]
		now++
		c.Access(now, ev.Addr, ev.Kind == workload.KindStore)
	}
	perElement(b, 1, "ns/access")
}

// cacheAccessMiss walks fresh blocks, so every access misses to the
// stub and fills.
func (e *probeEnv) cacheAccessMiss(b *testing.B) {
	c := newL1(b)
	var now uint64
	for i := 0; i < b.N; i++ {
		now += 32
		c.Access(now, uint64(i%(1<<22))*32, false)
	}
	perElement(b, 1, "ns/access")
}

// cacheWarm times the functional access fast-forward windows use.
func (e *probeEnv) cacheWarm(b *testing.B) {
	c := newL1(b)
	for i := 0; i < b.N; i++ {
		ev := &e.dstream[i%len(e.dstream)]
		c.Warm(ev.Addr, ev.Kind == workload.KindStore)
	}
	perElement(b, 1, "ns/access")
}

// frontEnd times the control-flow predictors alone: the combining
// direction predictor, the BTB and the return-address stack, per control
// instruction.
func (e *probeEnv) frontEnd(b *testing.B) {
	bp := &bpred.Stats{P: bpred.NewDefault()}
	btb := bpred.NewBTB(9, 4)
	ras := bpred.NewRAS(8)
	for i := 0; i < b.N; i++ {
		ev := &e.control[i%len(e.control)]
		switch ev.Kind {
		case workload.KindBranch:
			if bp.PredictAndTrain(ev.PC, ev.Taken) && ev.Taken {
				if _, hit := btb.Lookup(ev.PC); !hit {
					btb.Update(ev.PC, ev.PC+64)
				}
			}
		case workload.KindCall:
			ras.Push(ev.PC + 4)
			if _, hit := btb.Lookup(ev.PC); !hit {
				btb.Update(ev.PC, ev.PC+64)
			}
		case workload.KindReturn:
			ras.Pop()
		}
	}
	perElement(b, 1, "ns/branch")
}

// sliceSource feeds a pre-generated event slice to an engine.
type sliceSource struct {
	evs []workload.Event
	i   int
}

func (s *sliceSource) Next(ev *workload.Event) bool {
	if s.i >= len(s.evs) {
		return false
	}
	*ev = s.evs[s.i]
	s.i++
	return true
}

// engineStep runs one engine over an app's event slice with both L1s
// replaced by the stub: the engine and its predictors, nothing else.
func (e *probeEnv) engineStep(b *testing.B, kind sim.EngineKind, fastForward bool) {
	type stepper interface {
		Run(workload.Source, uint64) cpu.Result
		FastForward(workload.Source, uint64) uint64
	}
	for i := 0; i < b.N; i++ {
		evs := e.events[i%len(e.events)]
		var eng stepper
		var err error
		if kind == sim.InOrder {
			eng, err = cpu.NewInOrder(cpu.DefaultConfig(), fixedLevel{1}, fixedLevel{1}, bpred.NewDefault())
		} else {
			eng, err = cpu.NewOutOfOrder(cpu.DefaultConfig(), fixedLevel{1}, fixedLevel{1}, bpred.NewDefault())
		}
		if err != nil {
			b.Fatal(err)
		}
		src := &sliceSource{evs: evs}
		if fastForward {
			eng.FastForward(src, uint64(len(evs)))
		} else {
			eng.Run(src, uint64(len(evs)))
		}
	}
	perElement(b, probeEvents, "ns/instr")
}

// solo times one full simulation of each app's base config.
func (e *probeEnv) solo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(e.base[i%len(e.base)]); err != nil {
			b.Fatal(err)
		}
	}
}

// gangConfigs returns n same-front-end d-cache design points of one app.
func (e *probeEnv) gangConfigs(app, n int) []sim.Config {
	var cfgs []sim.Config
	for _, assoc := range []int{2, 4} {
		for _, kb := range []int{8, 16, 32, 64} {
			cfg := e.base[app]
			cfg.DCache.Geom.SizeBytes, cfg.DCache.Geom.Assoc = kb<<10, assoc
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs[:n]
}

func (e *probeEnv) gang(b *testing.B, n int) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunGang(e.gangConfigs(i%len(e.base), n)); err != nil {
			b.Fatal(err)
		}
	}
}

func (e *probeEnv) workloadNext(b *testing.B) {
	gens := make([]*workload.Generator, len(e.apps))
	for i, app := range e.apps {
		gens[i] = workload.NewGenerator(workload.MustGet(app))
	}
	var ev workload.Event
	for i := 0; i < b.N; i++ {
		// Runs of events from one generator, as a simulation draws them.
		g := i / probeEvents % len(gens)
		if !gens[g].Next(&ev) {
			gens[g] = workload.NewGenerator(workload.MustGet(e.apps[g]))
		}
	}
	perElement(b, 1, "ns/event")
}

// workloadSkip times the O(1) stream jump sampled runs make between
// windows, per skipped instruction.
func (e *probeEnv) workloadSkip(b *testing.B) {
	n := e.sampling.SkipInstructions
	if n == 0 {
		n = resizecache.DefaultSampling().SkipInstructions
	}
	gens := make([]*workload.Generator, len(e.apps))
	for i, app := range e.apps {
		gens[i] = workload.NewGenerator(workload.MustGet(app))
	}
	for i := 0; i < b.N; i++ {
		g := i % len(gens)
		if gens[g].Skip(n) < n {
			gens[g] = workload.NewGenerator(workload.MustGet(e.apps[g]))
		}
	}
	perElement(b, int(n), "ns/instr")
}

var keySink sim.Key

func (e *probeEnv) configKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		keySink = e.base[i%len(e.base)].Key()
	}
	perElement(b, 1, "ns/key")
}

func (e *probeEnv) sweepArtifactKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k, err := e.specs[i%len(e.specs)].ArtifactKey()
		if err != nil {
			b.Fatal(err)
		}
		keySink = k
	}
	perElement(b, 1, "ns/key")
}

// sampled times an interval-sampled run of each app's base config whose
// warmup is computed and saved (cold) or restored from a store (warm).
func (e *probeEnv) sampled(b *testing.B, warm bool) {
	cfgs := make([]sim.Config, len(e.base))
	stores := make([]*runner.MemStore, len(e.base))
	for i := range cfgs {
		cfgs[i] = e.base[i]
		cfgs[i].Sampling = e.sampling
		stores[i] = runner.NewMemStore()
		if warm {
			if _, _, err := sim.RunWithCheckpoints(cfgs[i], stores[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(cfgs)
		store := stores[j]
		if !warm {
			store = runner.NewMemStore()
		}
		if _, _, err := sim.RunWithCheckpoints(cfgs[j], store); err != nil {
			b.Fatal(err)
		}
	}
}

// runProbes runs every probe for benchtime each and derives the layer
// metrics and the per-instruction budget of sim.Run.
func runProbes(e *probeEnv, benchtime string) (map[string]float64, []string, error) {
	testing.Init()
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, nil, err
	}
	defer flag.Set("test.benchtime", prev)

	res := map[string]testing.BenchmarkResult{}
	for _, p := range e.probes() {
		r := testing.Benchmark(p.f)
		if r.N == 0 {
			return nil, nil, fmt.Errorf("probe %s failed", p.name)
		}
		res[p.name] = r
	}
	ns := func(name string) float64 { return float64(res[name].T.Nanoseconds()) / float64(res[name].N) }
	extra := func(name, unit string) float64 { return res[name].Extra[unit] }

	m := map[string]float64{
		"cache.access_hit_ns":          extra("CacheAccess/hit", "ns/access"),
		"cache.access_miss_ns":         extra("CacheAccess/miss", "ns/access"),
		"cache.warm_ns":                extra("CacheWarm", "ns/access"),
		"bpred.branch_ns":              extra("FrontEnd", "ns/branch"),
		"cpu.ooo_ns_per_instr":         extra("EngineStep/ooo", "ns/instr"),
		"cpu.inorder_ns_per_instr":     extra("EngineStep/inorder", "ns/instr"),
		"cpu.fastforward_ns_per_instr": extra("EngineStep/fastforward", "ns/instr"),
		"workload.next_ns":             extra("WorkloadNext", "ns/event"),
		"workload.skip_ns_per_instr":   extra("WorkloadSkip", "ns/instr"),
		"sim.key_ns":                   extra("ConfigKey", "ns/key"),
		"experiment.artifact_key_us":   extra("SweepArtifactKey", "ns/key") / 1e3,
		"sim.solo_ms":                  ns("GangMember/solo") / 1e6,
		"sim.gang8_ms":                 ns("GangMember/8") / 1e6,
		"sim.gang1_over_solo":          ns("GangMember/1") / ns("GangMember/solo"),
		"sim.allocs_per_run":           float64(res["GangMember/solo"].AllocsPerOp()),
		"sim.alloc_kb_per_sim":         float64(res["GangMember/solo"].AllocedBytesPerOp()) / 1024,
		"sim.sampled_cold_ms":          ns("SampledCheckpoint/cold") / 1e6,
		"sim.sampled_warm_ms":          ns("SampledCheckpoint/warm") / 1e6,
	}
	// The marginal cost of one more gang member: the least-squares slope
	// of gang time over member count.
	var mx, my float64
	for _, n := range gangSizes {
		mx += float64(n)
		my += ns(fmt.Sprintf("GangMember/%d", n))
	}
	mx, my = mx/float64(len(gangSizes)), my/float64(len(gangSizes))
	var sxy, sxx float64
	for _, n := range gangSizes {
		dx := float64(n) - mx
		sxy += dx * (ns(fmt.Sprintf("GangMember/%d", n)) - my)
		sxx += dx * dx
	}
	m["sim.gang_member_ns_per_instr"] = sxy / sxx / float64(e.instr)

	budget, residual, err := e.budget(m)
	if err != nil {
		return nil, nil, err
	}
	m["sim.budget_residual_ns_per_instr"] = residual
	return m, budget, nil
}

// budget explains sim.Run's cost per instruction on the probe configs
// as generator + engine + cache accesses, naming the residual. The
// engine probe runs the real predictors, so the branch predictor's share
// is printed as part of the engine term, not added to it.
func (e *probeEnv) budget(m map[string]float64) ([]string, float64, error) {
	var instr, accesses, branches float64
	for _, cfg := range e.base {
		r, err := sim.Run(cfg)
		if err != nil {
			return nil, 0, err
		}
		instr += float64(r.CPU.Instructions)
		branches += float64(r.CPU.Activity.Branches)
		accesses += float64(r.DCache.Accesses + r.ICache.Accesses)
		for _, l := range r.Levels {
			accesses += float64(l.Accesses)
		}
	}
	solo := m["sim.solo_ms"] * 1e6 / float64(e.instr)
	gen := m["workload.next_ns"]
	eng := m["cpu.ooo_ns_per_instr"]
	caches := m["cache.access_hit_ns"] * accesses / instr
	residual := solo - gen - eng - caches
	return []string{
		"budget: sim.Run on the base out-of-order config, ns per instruction",
		fmt.Sprintf("  sim.Run                                  %8.1f", solo),
		fmt.Sprintf("  generator (workload.next_ns)             %8.1f", gen),
		fmt.Sprintf("  engine (cpu.ooo_ns_per_instr)            %8.1f", eng),
		fmt.Sprintf("    of which predictors (bpred.branch_ns x %.3f branches/instr) %.1f", branches/instr, m["bpred.branch_ns"]*branches/instr),
		fmt.Sprintf("  caches (access_hit_ns x %.3f accesses/instr) %4.1f", accesses/instr, caches),
		fmt.Sprintf("  residual                                 %8.1f", residual),
	}, residual, nil
}
