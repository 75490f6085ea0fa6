package resizecache

import (
	"testing"

	"resizecache/internal/experiment"
	"resizecache/internal/sim"
)

// TestPlanArtifactKeyGolden pins the literal fingerprint of a small
// plan's derived artifacts (the figure-level cache tier). It moves only
// when a scenario axis, a sweep's artifact key or the plan encoding
// changes; stored figure payloads are keyed by it.
func TestPlanArtifactKeyGolden(t *testing.T) {
	plan, err := PlanOf(
		Scenario{Benchmark: "m88ksim", Organization: SelectiveSets, Sides: DOnly,
			Instructions: 100_000},
		Scenario{Benchmark: "vpr", Organization: Hybrid, Strategy: Dynamic, Sides: BothSides,
			L2: L2Spec{Organization: SelectiveWays}, InOrder: true, Instructions: 250_000,
			Sampling: DefaultSampling()},
	)
	if err != nil {
		t.Fatal(err)
	}
	const want = "c86a6c0237bd4c121af0353a15e719759ea99f65c926e78e5bf0ee4033cf3183"
	if got := planArtifactKey("golden", 1, plan).String(); got != want {
		t.Errorf("planArtifactKey = %q, pinned %q", got, want)
	}
}

// referencePlanKey is planArtifactKey without baseline sharing: every
// scenario's sweeps run over a config built from that scenario's own
// fields, and each sweep hashes it on its own.
func referencePlanKey(t *testing.T, domain string, version int, plan Plan) sim.Key {
	t.Helper()
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

		opts := experiment.DefaultOptions()
		opts.Instructions = sc.Instructions
		if sc.InOrder {
			opts.Engine = sim.InOrder
		}
		cfg := experiment.BaseConfig(sc.Benchmark, sc.Assoc, opts)
		levels, err := sc.Hierarchy.levelSpecs(sc.L2.Assoc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Levels = levels
		cfg.Sampling = sc.Sampling
		var buf [3]experiment.SweepSpec
		for _, spec := range sc.appendSweepSpecs(buf[:0], experiment.NewBaseline(cfg)) {
			// A plain spec over this scenario's config, hashed afresh.
			own := experiment.SweepSpec{App: spec.App, Side: spec.Side, Org: spec.Org,
				Dynamic: spec.Dynamic, Base: cfg}
			k, err := own.ArtifactKey()
			if err != nil {
				t.Fatal(err)
			}
			b.RawKey(k)
		}
	}
	return b.Sum()
}

// TestPlanArtifactKeySharesBaselinesExactly: planArtifactKey builds and
// fingerprints each distinct baseline of a plan once and shares it
// across scenarios. Sharing must never change a key, so the key must
// equal one computed scenario by scenario — over the benchmark grid
// (108 scenarios on 6 baselines) and over a plan whose baselines
// differ in associativity, hierarchy, L2 associativity, budget and
// sampling schedule.
func TestPlanArtifactKeySharesBaselinesExactly(t *testing.T) {
	bench, err := Grid{
		Benchmarks:    []string{"m88ksim", "vpr", "su2cor"},
		Organizations: []Organization{SelectiveWays, SelectiveSets, Hybrid},
		Strategies:    []Strategy{Static, Dynamic},
		Sides:         []Sides{DOnly, IOnly, BothSides},
		Engines:       []Engine{OutOfOrderEngine, InOrderEngine},
		Instructions:  40_000,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if bench.Len() != 108 {
		t.Fatalf("benchmark grid has %d scenarios, want 108", bench.Len())
	}

	var varied []Scenario
	for _, instr := range []uint64{100_000, 250_000} {
		for _, sampling := range []SamplingSpec{{}, DefaultSampling()} {
			g, err := Grid{
				Benchmarks:    []string{"gcc", "vpr"},
				Organizations: []Organization{NonResizable, SelectiveSets},
				Strategies:    []Strategy{Static, Dynamic},
				Assocs:        []int{1, 2, 4},
				Sides:         []Sides{BothSides, DOnly, L2Only},
				Hierarchies:   []Hierarchy{BaseL2, NoL2, SmallL2, BigL2, DeepL2L3},
				L2Orgs:        []Organization{NonResizable, SelectiveWays, Hybrid},
				Instructions:  instr,
				Sampling:      sampling,
			}.Expand()
			if err != nil {
				t.Fatal(err)
			}
			varied = append(varied, g.Scenarios()...)
			for _, l2Assoc := range []int{2, 8} {
				for _, h := range []Hierarchy{BaseL2, BigL2, DeepL2L3} {
					varied = append(varied, Scenario{Benchmark: "gcc", Organization: SelectiveSets,
						Hierarchy: h, L2: L2Spec{Organization: SelectiveWays, Assoc: l2Assoc},
						Instructions: instr, Sampling: sampling})
				}
			}
		}
	}
	mixed, err := PlanOf(varied...)
	if err != nil {
		t.Fatal(err)
	}

	for name, plan := range map[string]Plan{"benchmark grid": bench, "varied baselines": mixed} {
		distinct := make(map[baseID]bool)
		for _, sc := range plan.scenarios {
			distinct[sc.baseID()] = true
		}
		if len(distinct) == plan.Len() {
			t.Fatalf("%s: no two of %d scenarios share a baseline; nothing is shared", name, plan.Len())
		}
		if got, want := planArtifactKey("share", 3, plan), referencePlanKey(t, "share", 3, plan); got != want {
			t.Errorf("%s (%d scenarios, %d baselines): planArtifactKey = %v, scenario by scenario %v",
				name, plan.Len(), len(distinct), got, want)
		}
	}
}
