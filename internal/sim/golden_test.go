package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
)

var updateGolden = flag.Bool("update", false, "rewrite the sim golden fixtures from the current implementation")

// goldenConfigs is the fixture corpus: a small set of simulations chosen
// to exercise every arm of the per-access energy path — both engines,
// every organization, static and dynamic policies, delayed-precharge
// shared levels, deep hierarchies, no hierarchy, and the ablation
// switches. The fixtures pin Result bit-for-bit (floats round-trip
// exactly through encoding/json), so any change to *what* the simulator
// computes — as opposed to when — fails TestGoldenResults.
func goldenConfigs() map[string]Config {
	cfgs := map[string]Config{}

	base := Default("gcc")
	base.Instructions = 120_000
	cfgs["gcc-ooo-base"] = base

	sets := Default("m88ksim")
	sets.Instructions = 120_000
	sets.Engine = InOrder
	sets.DCache.Org = core.SelectiveSets
	sets.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 3}
	cfgs["m88ksim-inorder-static-sets"] = sets

	ways := Default("su2cor")
	ways.Instructions = 150_000
	ways.DCache.Org = core.SelectiveWays
	ways.DCache.Policy = PolicySpec{Kind: PolicyDynamic,
		Interval: 16384, MissBound: 163, SizeBoundBytes: 4 << 10}
	cfgs["su2cor-ooo-dynamic-ways"] = ways

	hyb := Default("vpr")
	hyb.Instructions = 120_000
	hyb.DCache.Org = core.Hybrid
	hyb.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 2}
	hyb.ICache.Org = core.Hybrid
	hyb.ICache.Policy = PolicySpec{Kind: PolicyDynamic,
		Interval: 16384, MissBound: 64, SizeBoundBytes: 8 << 10}
	cfgs["vpr-ooo-hybrid-both"] = hyb

	noL2 := Default("ammp")
	noL2.Instructions = 100_000
	noL2.Engine = InOrder
	noL2.Levels = nil
	noL2.DCache.Org = core.SelectiveSets
	noL2.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 2}
	noL2.DCache.AblationFullPrecharge = true
	noL2.ICache.AblationFreeFlush = true
	cfgs["ammp-inorder-nol2-ablations"] = noL2

	deep := Default("compress")
	deep.Instructions = 120_000
	deep.Levels = []LevelSpec{
		{CacheSpec: CacheSpec{
			Geom: geometry.Geometry{SizeBytes: 512 << 10, Assoc: 4, BlockBytes: 64, SubarrayBytes: 4 << 10},
			Org:  core.SelectiveWays,
			Policy: PolicySpec{Kind: PolicyDynamic,
				Interval: 4096, MissBound: 40},
		}, WritebackEntries: 4},
		{CacheSpec: CacheSpec{
			Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
			Org:  core.NonResizable,
		}, Precharge: PrechargeFull},
	}
	cfgs["compress-ooo-resizable-l2-l3"] = deep

	// Sampled variants pin the interval-sampled path bit for bit: both
	// engines, a dynamic policy, and DefaultSampling's warmup prefix.
	for _, name := range []string{"gcc-ooo-base", "m88ksim-inorder-static-sets", "su2cor-ooo-dynamic-ways"} {
		c := cfgs[name]
		c.Instructions = 250_000
		c.Sampling = DefaultSampling()
		cfgs[name+"-sampled"] = c
	}

	return cfgs
}

const goldenPath = "testdata/golden.json"

// TestGoldenResults locks the simulator's observable outcomes: every
// fixture config must reproduce its recorded Result exactly, including
// every energy figure to the last bit. Run `go test ./internal/sim
// -run Golden -update` to re-record after an intentional model change.
func TestGoldenResults(t *testing.T) {
	got, gotJSON := goldenRun(t, Run)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixtures rewritten: %s", goldenPath)
		return
	}

	checkGolden(t, got, gotJSON)
}

// TestGoldenResultsFromRecordedStreams: the fixtures hold when every
// config — detailed or sampled — replays a recorded stream from a memo,
// as a runner's default entry points do. Each config runs twice, since
// a memo records a stream on its second request, and the second run
// must have been served a recording. The limit-1 memo holds 4 MiB, a
// stream or two, so later configs evict earlier streams.
func TestGoldenResultsFromRecordedStreams(t *testing.T) {
	s := NewStreams(1)
	got, gotJSON := goldenRun(t, func(cfg Config) (Result, error) {
		if _, _, err := s.RunGang([]Config{cfg}, nil); err != nil {
			return Result{}, err
		}
		before := s.replays.Load()
		res, _, err := s.RunGang([]Config{cfg}, nil)
		if err != nil {
			return Result{}, err
		}
		if s.replays.Load() == before {
			t.Errorf("%s/%d: the memo served no recording", cfg.Benchmark, cfg.Instructions)
		}
		return res[0], nil
	})
	checkGolden(t, got, gotJSON)
}

// TestSampledGoldenResults checks the interval-sampled fixtures on their
// own, so test filters that select the sampling tests pin them too.
func TestSampledGoldenResults(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading fixtures (run with -update to create): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for name, cfg := range goldenConfigs() {
		if !cfg.Sampling.Enabled() {
			continue
		}
		sampled++
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var w Result
		if err := json.Unmarshal(want[name], &w); err != nil {
			t.Fatalf("%s: no fixture recorded (run with -update): %v", name, err)
		}
		if resultJSON(t, got) != resultJSON(t, w) {
			diffResult(t, name, w, got)
			t.Errorf("%s: sampled result differs from its fixture", name)
		}
	}
	if sampled == 0 {
		t.Fatal("no sampled fixture configs")
	}
}

// goldenRun runs every fixture config and encodes the results the way
// the fixture file stores them.
func goldenRun(t *testing.T, run func(Config) (Result, error)) (map[string]Result, []byte) {
	t.Helper()
	got := map[string]Result{}
	for name, cfg := range goldenConfigs() {
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = res
	}
	gotJSON, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return got, append(gotJSON, '\n')
}

// checkGolden compares encoded results against the fixture file.
func checkGolden(t *testing.T, got map[string]Result, gotJSON []byte) {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading fixtures (run with -update to create): %v", err)
	}
	if string(want) == string(gotJSON) {
		return
	}

	// Diagnose per config and per field rather than dumping both blobs.
	var wantRes map[string]Result
	if err := json.Unmarshal(want, &wantRes); err != nil {
		t.Fatalf("fixtures unreadable (run with -update to recreate): %v", err)
	}
	for name, g := range got {
		w, ok := wantRes[name]
		if !ok {
			t.Errorf("%s: no fixture recorded (run with -update)", name)
			continue
		}
		diffResult(t, name, w, g)
	}
	for name := range wantRes {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: fixture exists but config was removed", name)
		}
	}
	if !t.Failed() {
		t.Errorf("fixture bytes differ but decoded results match; re-run with -update to normalize encoding")
	}
}

// diffResult reports the first-level fields where two results diverge.
func diffResult(t *testing.T, name string, want, got Result) {
	t.Helper()
	check := func(field string, w, g any) {
		if fmt.Sprintf("%v", w) != fmt.Sprintf("%v", g) {
			t.Errorf("%s: %s diverged:\n\twant %v\n\tgot  %v", name, field, w, g)
		}
	}
	check("CPU.Cycles", want.CPU.Cycles, got.CPU.Cycles)
	check("CPU.Instructions", want.CPU.Instructions, got.CPU.Instructions)
	check("CPU.Activity", want.CPU.Activity, got.CPU.Activity)
	check("CPU.BranchAccuracy", want.CPU.BranchAccuracy, got.CPU.BranchAccuracy)
	check("Energy", want.Energy, got.Energy)
	check("EDP", want.EDP, got.EDP)
	check("DCache", want.DCache, got.DCache)
	check("ICache", want.ICache, got.ICache)
	check("Levels", want.Levels, got.Levels)
}
