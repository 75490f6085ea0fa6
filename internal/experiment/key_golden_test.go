package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/sim"
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
			"2146d5f3b8221317483a1ad5ce81d8f2e2ea892847a3a8ebd3420df3031223c1"},
		{"d-dynamic-hybrid", NewSweepSpec("m88ksim", DSide, core.Hybrid, 2, true, opts),
			"4e04f7902b0b24de8e9efc932a2d7eae2aa8369a7181c5f8c95d955db63177e4"},
		{"i-static-sets", NewSweepSpec("vpr", ISide, core.SelectiveSets, 2, false, opts),
			"df92d971be0cae06f7ada1ed8d158fedd58511bbbff459f7bdd4e54de95cacfe"},
		{"i-dynamic-sets", NewSweepSpec("su2cor", ISide, core.SelectiveSets, 2, true, opts),
			"dde18dcae6a87125cd8bb098e2a5bd95bbd0cd013a6c88e913bc2ae4cf22618b"},
		{"l2-static-ways", NewSweepSpec("gcc", L2Side, core.SelectiveWays, 2, false, opts),
			"2bd869ede8234c7fb7bb38c9ba3bda1e13021b69789ce4adc3c429b96a2cabbe"},
		{"l2-dynamic-hybrid", NewSweepSpec("vpr", L2Side, core.Hybrid, 2, true, opts),
			"f734974095a6a09d90e46b7eddcd1dd49222434934a05db89a3afd074557360e"},
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

// TestSweepBatchesPinned pins the candidate batches a sweep key does not
// hash. A sweep is keyed by its definition, so a change to candidate
// enumeration (the static policy list, dynamicCandidates, applySide)
// would leave every key in place and serve winners selected from the old
// batch; this digest over the Config.Key of every config in every kind
// of sweep fails instead. Each batch opens with the baseline followed by
// one config per candidate policy. A keyVersion bump moves the digest
// too (and every sweep key with Base.Key()): re-pin it then as well.
func TestSweepBatchesPinned(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	h := sha256.New()
	for _, side := range []Side{DSide, ISide, L2Side} {
		for _, org := range []core.Organization{core.NonResizable, core.SelectiveWays,
			core.SelectiveSets, core.Hybrid, core.HybridMinWays} {
			for _, dynamic := range []bool{false, true} {
				spec := NewSweepSpec("vpr", side, org, 4, dynamic, opts)
				sw, err := spec.Resolve()
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", side, org, dynamic, err)
				}
				cfgs, pols := sw.Configs()
				if len(cfgs) != len(pols)+1 || cfgs[0].Key() != spec.Base.Key() {
					t.Fatalf("%v/%v/%v: batch of %d configs for %d candidates", side, org, dynamic, len(cfgs), len(pols))
				}
				writeBatch(h, cfgs)
			}
		}
	}
	const want = "b5add1533c70e37e36167fa43e7a60628ec79e09062747c410abfafe9351f710"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("batch digest %s, pinned %s: candidate batch changed: bump artifactVersion and re-pin this digest and TestSweepArtifactKeyGolden", got, want)
	}
}

// writeBatch feeds a sweep's materialized batch to h: its length, then
// the Key of every config in batch order.
func writeBatch(h hash.Hash, cfgs []sim.Config) {
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(cfgs))))
	for i := range cfgs {
		k := cfgs[i].Key()
		h.Write(k[:])
	}
}

// TestSweepArtifactKeyAllocs: fingerprinting a sweep allocates
// nothing, however many candidates it runs: Resolve checks the
// schedule without building it, the baseline comes fingerprinted, and
// the key builder stays on the stack.
func TestSweepArtifactKeyAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	allocs := func(spec SweepSpec, wantConfigs int) float64 {
		sw, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if cfgs, _ := sw.Configs(); len(cfgs) != wantConfigs {
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
	if small != 0 || large != 0 {
		t.Errorf("ArtifactKey allocations: %v for 43 configs, %v for 211; want 0", small, large)
	}
}
