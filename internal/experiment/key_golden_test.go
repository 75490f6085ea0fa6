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
			"3ee5934efc9f6f8b78731ebd4b99bdd005a9bead40b66df0bec7df3970ed6c54"},
		{"d-dynamic-hybrid", NewSweepSpec("m88ksim", DSide, core.Hybrid, 2, true, opts),
			"c588248c1fca9facce1c87126ffc9bfc86ece26013433e6ea58d21fc4319db52"},
		{"i-static-sets", NewSweepSpec("vpr", ISide, core.SelectiveSets, 2, false, opts),
			"56a8d24be156a33f38e414dafb486f7faf169eba476b45acac7cf468ff781864"},
		{"i-dynamic-sets", NewSweepSpec("su2cor", ISide, core.SelectiveSets, 2, true, opts),
			"6d21fb7f7c7a9f2877cb404c981198df920e0d4cc726644883d7f51cd2a81480"},
		{"l2-static-ways", NewSweepSpec("gcc", L2Side, core.SelectiveWays, 2, false, opts),
			"822eedb1d8cfc7b356a15a7d9a008d9bd2c9a4cd6c06dc1ad5bcb6e109631917"},
		{"l2-dynamic-hybrid", NewSweepSpec("vpr", L2Side, core.Hybrid, 2, true, opts),
			"b39c2e2b2eccaf3c9528cb06e6005e8158c7f27f59421215162efe56ab433533"},
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
