package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
	"resizecache/internal/workload"
)

// forkBatch is a dynamic sweep batch over the L1 at pos with intervals
// short enough for a 20K-instruction run to cross many boundaries: the
// baseline, then every size bound and the sweep's hold counts, at
// intervals of 512 and 2048 accesses and three of the sweep's miss-bound
// fractions.
func forkBatch(t *testing.T, base Config, pos int, org core.Organization) []Config {
	t.Helper()
	spec := base.cacheAt(pos)
	sched, err := core.BuildSchedule(spec.Geom, org)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Config{base}
	for _, iv := range []uint64{512, 2048} {
		for _, mf := range []float64{0.005, 0.02, 0.08} {
			for _, sb := range sched.Points[1:] {
				for _, h := range []int{0, 3} {
					cfg := base
					c := cfg.cacheAt(pos)
					c.Org = org
					c.Policy = PolicySpec{Kind: PolicyDynamic, Interval: iv,
						MissBound: uint64(mf * float64(iv)), SizeBoundBytes: sb.Bytes, UpsizeHoldIntervals: h}
					batch = append(batch, cfg)
				}
			}
		}
	}
	return batch
}

// runTraced runs gang as runGangOver does for RunGang, recording its
// passes and forks.
func runTraced(t *testing.T, gang []Config, cs CheckpointStore) ([]Result, *gangTrace) {
	t.Helper()
	prof, err := workload.Get(gang[0].Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	tr := new(gangTrace)
	out, _, err := runGangOver(gang, prof, cs, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	return out, tr
}

// checkOnePass fails unless the gang ran as one engine pass: every
// split of an L1 controller forked a machine inside the pass instead
// of adding a pass that re-runs the split-off followers.
func checkOnePass(t *testing.T, tr *gangTrace) {
	t.Helper()
	if len(tr.passMachines) != 1 {
		t.Errorf("%d engine passes (machines per pass %v), want 1", len(tr.passMachines), tr.passMachines)
	}
}

// TestForkedMembersMatchAlone: a dynamic sweep batch over either L1,
// whose controllers split at many boundaries, runs as one engine pass,
// and every member — on the machine it started on or on one forked
// mid-pass, fork of a fork included — gets its gang-of-one Result,
// over both engines and every organization, detailed and sampled.
func TestForkedMembersMatchAlone(t *testing.T) {
	apps := workload.Names()
	if testing.Short() {
		apps = []string{"m88ksim", "su2cor"}
	}
	for _, app := range apps {
		for _, engine := range []EngineKind{OutOfOrder, InOrder} {
			for _, pos := range []int{dPos, iPos} {
				for _, org := range sweepOrgs {
					for _, sampled := range []bool{false, true} {
						name := fmt.Sprintf("%s/%v/pos%d/%v/sampled=%v", app, engine, pos, org, sampled)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							base := sweepBase(app, engine, 20_000)
							var cs CheckpointStore
							if sampled {
								base.Instructions = 40_000
								base.Sampling = sharedSampling()
								cs = newMapStore()
							}
							gang := forkBatch(t, base, pos, org)
							want := singles(t, gang)
							got, tr := runTraced(t, gang, cs)
							checkOnePass(t, tr)
							for i := range gang {
								if !reflect.DeepEqual(got[i], want[i]) {
									diffResult(t, fmt.Sprintf("member %d", i), want[i], got[i])
								}
							}
						})
					}
				}
			}
		}
	}
}

// forkFamily is a leader that walks its 16-way L1 at pos down one size
// per boundary, reaching the smallest at the run's last boundary, and
// followers that split from it, and from each other, at boundaries
// across the run: a size bound at every offered size stops a follower
// at that size, and miss bounds make followers upsize when an interval
// misses more than they allow, alone or on top of a size bound. It
// returns the family and the leader's boundary count.
func forkFamily(t *testing.T, engine EngineKind, pos int) ([]Config, int) {
	t.Helper()
	geom := geometry.Geometry{SizeBytes: 32 << 10, Assoc: 16, BlockBytes: 32, SubarrayBytes: 1 << 10}
	sched, err := core.BuildSchedule(geom, core.SelectiveWays)
	if err != nil {
		t.Fatal(err)
	}
	last := len(sched.Points) - 1
	base := sweepBase("gcc", engine, 20_000)
	*base.cacheAt(pos) = CacheSpec{Geom: geom, Org: core.NonResizable}
	probe, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	accesses := probe.DCache.Accesses
	if pos == iPos {
		accesses = probe.ICache.Accesses
	}
	interval := accesses / uint64(last)

	member := func(missBound uint64, sizeBound, hold int) Config {
		c := base
		*c.cacheAt(pos) = CacheSpec{Geom: geom, Org: core.SelectiveWays,
			Policy: PolicySpec{Kind: PolicyDynamic, Interval: interval,
				MissBound: missBound, SizeBoundBytes: sizeBound, UpsizeHoldIntervals: hold}}
		return c
	}
	const never = 1 << 40 // no interval misses this many: always downsize
	// A bound of point k's size stops a follower at k, so it splits at
	// boundary k+1; 0 is no bound.
	sizeBounds := []int{0}
	for _, p := range sched.Points[:last] {
		sizeBounds = append(sizeBounds, p.Bytes)
	}
	family := []Config{member(never, 0, 0)}
	for _, sb := range sizeBounds {
		for _, mb := range []uint64{never, 0, 2, 8, 32, 64, 128, 256} {
			for _, h := range []int{0, 2} {
				if sb == 0 && mb == never && h == 0 {
					continue // the leader
				}
				family = append(family, member(mb, sb, h))
			}
		}
	}
	return family, last
}

// TestForkShapes drives a family of followers that fork off a walking
// leader at the first boundary, in the middle and at the run's last
// boundary; two ways at once from one machine; again off machines that
// were themselves forked; and, over the d-cache, into more machines
// than gangChunk. The family runs as one engine pass, and every member
// gets its gang-of-one Result. (gcc's i-stream misses too few blocks
// per interval for its miss bounds to fork two ways at one boundary.)
func TestForkShapes(t *testing.T) {
	for _, engine := range []EngineKind{OutOfOrder, InOrder} {
		for _, pos := range []int{dPos, iPos} {
			t.Run(fmt.Sprintf("%v/pos%d", engine, pos), func(t *testing.T) {
				t.Parallel()
				family, last := forkFamily(t, engine, pos)
				want := singles(t, family)
				leadTrace := want[0].DCache.SizeTrace
				if pos == iPos {
					leadTrace = want[0].ICache.SizeTrace
				}
				if len(leadTrace) != last || leadTrace[last-1] != last {
					t.Fatalf("the leader does not reach the smallest size at its last boundary: %v", leadTrace)
				}
				got, tr := runTraced(t, family, nil)
				checkOnePass(t, tr)
				for i := range family {
					if !reflect.DeepEqual(got[i], want[i]) {
						diffResult(t, fmt.Sprintf("member %d", i), want[i], got[i])
					}
				}

				shapes := []struct {
					what string
					pred func(forkEvent) bool
				}{
					{"at the first boundary", func(f forkEvent) bool { return f.boundary == 1 }},
					{"at a middle boundary", func(f forkEvent) bool { return f.boundary == last/2 }},
					{"at the last boundary", func(f forkEvent) bool { return f.boundary == last }},
					{"off a forked machine", func(f forkEvent) bool { return f.gen > 0 }},
					{"to two targets at once", func(f forkEvent) bool { return f.machines == 2 }},
				}
				if pos == iPos {
					shapes = shapes[:4]
				}
				for _, c := range shapes {
					if !slices.ContainsFunc(tr.forks, c.pred) {
						t.Errorf("no fork %s: %+v", c.what, tr.forks)
					}
				}
				if pos == dPos && tr.passMachines[0] <= gangChunk {
					t.Errorf("the pass ended with %d machines, want more than gangChunk (%d)", tr.passMachines[0], gangChunk)
				}
			})
		}
	}
}

// TestSharedL2StillReruns: followers of a dynamic shared level, which
// one instruction can reach more than once, do not fork; they re-run in
// later passes and still get their gang-of-one Results.
func TestSharedL2StillReruns(t *testing.T) {
	gang := dynamicSweepBatch(t, sweepBase("gcc", OutOfOrder, 20_000), l2Pos, core.SelectiveWays)
	want := singles(t, gang)
	got, tr := runTraced(t, gang, nil)
	if len(tr.forks) != 0 || len(tr.passMachines) < 2 {
		t.Errorf("L2 followers forked (%d forks) or never re-ran (%d passes)", len(tr.forks), len(tr.passMachines))
	}
	for i := range gang {
		if !reflect.DeepEqual(got[i], want[i]) {
			diffResult(t, fmt.Sprintf("member %d", i), want[i], got[i])
		}
	}
}
