package experiment

import (
	"testing"

	"resizecache/internal/core"
)

// TestSweepArtifactKeyGolden pins the literal artifact fingerprints of
// a static and a dynamic sweep on each resizable side. Persisted sweep
// artifacts are keyed by these bytes, so a change in candidate
// enumeration or key composition that is not meant to invalidate them
// fails here; a deliberate one bumps artifactVersion and re-pins.
func TestSweepArtifactKeyGolden(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	cases := []struct {
		name string
		spec SweepSpec
		want string
	}{
		{"d-static-ways", NewSweepSpec("gcc", DSide, core.SelectiveWays, 4, false, opts),
			"a94bde0323b13caff2c5923124c58325a237f1db63c43044bf3935ee66f35551"},
		{"d-dynamic-hybrid", NewSweepSpec("m88ksim", DSide, core.Hybrid, 2, true, opts),
			"8013f204bf11a4939b87d73433ff9d69bf88005df5559be6bc9421fc969452c3"},
		{"i-static-sets", NewSweepSpec("vpr", ISide, core.SelectiveSets, 2, false, opts),
			"c4a41019f12c7651810c7266ddcb255a41dcc2b779be2e20687de7557ba6c6cc"},
		{"i-dynamic-sets", NewSweepSpec("su2cor", ISide, core.SelectiveSets, 2, true, opts),
			"be8e1d8ccbb58042054d200755200812c9caf0f5423d9f13b24a9d662b082fc6"},
		{"l2-static-ways", NewSweepSpec("gcc", L2Side, core.SelectiveWays, 2, false, opts),
			"b73721c4a328d1d6f6bcd8604a63b97f2aeac647c4ed40d3e151dcaa8640be48"},
		{"l2-dynamic-hybrid", NewSweepSpec("vpr", L2Side, core.Hybrid, 2, true, opts),
			"ba94b10157f09189760f5f69443c913fc368d6222e0eccf37098340ae95eed0b"},
	}
	for _, tc := range cases {
		k, err := tc.spec.ArtifactKey()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := k.String(); got != tc.want {
			t.Errorf("%s: ArtifactKey = %q, pinned %q", tc.name, got, tc.want)
		}
	}
}

// TestSweepKeyMatchesDefinition: the streamed fingerprint of every
// kind of sweep equals sweepArtifactKey over its materialized batch,
// and the batch opens with the baseline followed by one config per
// candidate policy.
func TestSweepKeyMatchesDefinition(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	for _, side := range []Side{DSide, ISide, L2Side} {
		for _, org := range []core.Organization{core.NonResizable, core.SelectiveWays,
			core.SelectiveSets, core.Hybrid, core.HybridMinWays} {
			for _, dynamic := range []bool{false, true} {
				spec := NewSweepSpec("vpr", side, org, 4, dynamic, opts)
				sw, err := spec.Resolve()
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", side, org, dynamic, err)
				}
				cfgs, pols := sw.configs()
				if len(cfgs) != len(pols)+1 || cfgs[0].Key() != spec.Base.Key() {
					t.Fatalf("%v/%v/%v: batch of %d configs for %d candidates", side, org, dynamic, len(cfgs), len(pols))
				}
				if want := sweepArtifactKey(spec.kind(), cfgs); sw.key != want {
					t.Errorf("%v/%v/%v: streamed key %v, materialized batch %v", side, org, dynamic, sw.key, want)
				}
			}
		}
	}
}

// TestSweepArtifactKeyAllocs: fingerprinting a sweep costs a fixed few
// allocations (the schedule and the key builder), however many
// candidates it streams.
func TestSweepArtifactKeyAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	allocs := func(spec SweepSpec, wantConfigs int) float64 {
		sw, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if cfgs, _ := sw.configs(); len(cfgs) != wantConfigs {
			t.Fatalf("sweep runs %d configs, want %d", len(cfgs), wantConfigs)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := spec.ArtifactKey(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(NewSweepSpec("gcc", DSide, core.SelectiveWays, 2, true, opts), 43)
	large := allocs(NewSweepSpec("gcc", DSide, core.Hybrid, 2, true, opts), 211)
	if small != large || large > 3 {
		t.Errorf("ArtifactKey allocations: %v for 43 configs, %v for 211; want equal and at most 3", small, large)
	}
}
