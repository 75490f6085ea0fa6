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
			"903386758521abea6e9d2292184dc3b3146a63d30b999cc2b9014011e4fcc0da"},
		{"d-dynamic-hybrid", NewSweepSpec("m88ksim", DSide, core.Hybrid, 2, true, opts),
			"f806a58ceba171ca83112c172b20d6860fc88272cb66525ede34a201331d33e1"},
		{"i-static-sets", NewSweepSpec("vpr", ISide, core.SelectiveSets, 2, false, opts),
			"4b8a280fac7a25d7eb67daf2021548c4c930149725994581d3e5e7286173c02c"},
		{"i-dynamic-sets", NewSweepSpec("su2cor", ISide, core.SelectiveSets, 2, true, opts),
			"2443de5af28ec673a059ffafa0b165b3aeb71f3c8a517126c53ea2be6baba8ff"},
		{"l2-static-ways", NewSweepSpec("gcc", L2Side, core.SelectiveWays, 2, false, opts),
			"facc9aaca9b158a848b5f46d055188289c1ae0c425db42a81dc21f7f80637b5c"},
		{"l2-dynamic-hybrid", NewSweepSpec("vpr", L2Side, core.Hybrid, 2, true, opts),
			"55ec0085ac03bc8fc1f5c24d13322962c6713d7db6f05380f2e8271835f62220"},
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
				cfgs, pols := sw.configs()
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

// TestSweepArtifactKeyAllocs: fingerprinting a sweep costs a fixed few
// allocations (the schedule and the key builder), however many
// candidates it runs.
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
