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

// l3Pos is the machine position of Levels[1], the L3 of an L2+L3
// hierarchy.
const l3Pos = l2Pos + 1

// withL3 is base over the l2+l3 hierarchy: its L2 backed by a 2M 8-way
// L3.
func withL3(base Config) Config {
	l3 := LevelSpec{CacheSpec: CacheSpec{Org: core.NonResizable,
		Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10}}}
	base.Levels = append(slices.Clone(base.Levels), l3)
	return base
}

// forkBatch is a dynamic sweep batch over the cache at pos with
// intervals short enough for a 20K-instruction run to cross many
// boundaries: the baseline, then every size bound and the sweep's hold
// counts, at two intervals and three miss-bound fractions. A shared
// level sees only the misses of the levels above it, so its intervals
// are shorter; the sweep's fractions for the L1s and the L2, and for
// the L3, which misses on nearly every access of a short run, fractions
// that let some controllers shrink.
func forkBatch(t *testing.T, base Config, pos int, org core.Organization) []Config {
	t.Helper()
	spec := base.cacheAt(pos)
	sched, err := core.BuildSchedule(spec.Geom, org)
	if err != nil {
		t.Fatal(err)
	}
	intervals := map[int][]uint64{dPos: {512, 2048}, iPos: {512, 2048}, l2Pos: {128, 512}, l3Pos: {16, 64}}[pos]
	fracs := []float64{0.005, 0.02, 0.08}
	if pos == l3Pos {
		fracs = []float64{0.5, 0.9, 1}
	}
	batch := []Config{base}
	for _, iv := range intervals {
		for _, mf := range fracs {
			for _, sb := range sched.Points[1:] {
				for _, h := range []int{0, 3} {
					cfg := base
					cfg.Levels = slices.Clone(base.Levels)
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

// runTraced runs gang as RunGang does, recording its passes and forks.
func runTraced(t *testing.T, gang []Config, cs CheckpointStore) ([]Result, *gangTrace) {
	t.Helper()
	prof, err := workload.Get(gang[0].Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	tr := new(gangTrace)
	out, _, err := runOver(nil, gang, prof, cs, tr)
	if err != nil {
		t.Fatal(err)
	}
	return out, tr
}

// runOver runs gang as s.RunGang does, but over prof's stream, which
// need not be a registered benchmark's, and recording into tr when it
// is non-nil.
func runOver(s *Streams, gang []Config, prof *workload.Profile, cs CheckpointStore, tr *gangTrace) ([]Result, WarmupStats, error) {
	g, out := gangOf(gang)
	ws, err := s.run(g, prof, cs, tr)
	return out, ws, err
}

// checkOnePass fails unless the gang ran as one engine pass: every
// split of a controller forked a machine inside the pass.
func checkOnePass(t *testing.T, tr *gangTrace) {
	t.Helper()
	if len(tr.passMachines) != 1 {
		t.Errorf("%d engine passes (machines per pass %v), want 1", len(tr.passMachines), tr.passMachines)
	}
}

// checkSnapshots fails unless the forks of the cache at pos copied the
// machine no more often than the arm's reach allows. An L1 arm sees one
// access before its boundary, which the next instruction to reach the
// L1 makes: one snapshot per armed boundary crossed. A shared level's
// arm sees forkReach accesses, and the L1 probe snapshots only the
// instructions that make one: at most forkReach snapshots per arm.
func checkSnapshots(t *testing.T, tr *gangTrace, pos int) {
	t.Helper()
	if pos < l2Pos {
		if tr.snapshots != tr.boundaries {
			t.Errorf("%d snapshots for %d armed boundaries of an L1, want one each", tr.snapshots, tr.boundaries)
		}
		return
	}
	if k := forkReach(pos); uint64(tr.snapshots) > k*uint64(tr.arms) {
		t.Errorf("%d snapshots for %d arms of machine position %d, want at most %d each", tr.snapshots, tr.arms, pos, k)
	}
}

// checkForks runs gang traced and checks it ran as one pass, within
// the snapshot budget of the cache at pos, and gave every member its
// Result in want.
func checkForks(t *testing.T, gang []Config, want []Result, cs CheckpointStore, pos int) *gangTrace {
	t.Helper()
	got, tr := runTraced(t, gang, cs)
	checkOnePass(t, tr)
	checkSnapshots(t, tr, pos)
	for i := range gang {
		if !reflect.DeepEqual(got[i], want[i]) {
			diffResult(t, fmt.Sprintf("member %d", i), want[i], got[i])
		}
	}
	return tr
}

// TestForkedMembersMatchAlone: a dynamic sweep batch over either L1 or
// the L2, whose controllers split at many boundaries, runs as one
// engine pass, and every member — on the machine it started on or on
// one forked mid-pass, fork of a fork included — gets its gang-of-one
// Result, over both engines and every organization, detailed and
// sampled. The L2 rows use apps whose L2 batches split.
func TestForkedMembersMatchAlone(t *testing.T) {
	l1Apps := workload.Names()
	if testing.Short() {
		l1Apps = []string{"m88ksim", "su2cor"}
	}
	for _, pos := range []int{dPos, iPos, l2Pos} {
		apps := l1Apps
		if pos == l2Pos {
			apps = []string{"gcc", "vpr"}
		}
		for _, app := range apps {
			for _, engine := range []EngineKind{OutOfOrder, InOrder} {
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
							checkForks(t, gang, singles(t, gang), cs, pos)
						})
					}
				}
			}
		}
	}
}

// forkFamily is a leader that walks its 16-way cache at pos down one
// size per boundary, reaching the smallest at the run's last boundary,
// and followers that split from it, and from each other, at boundaries
// across the run: a size bound at every offered size stops a follower
// at that size, and miss bounds make followers upsize when an interval
// misses more than they allow, alone or on top of a size bound. It
// returns the family and the leader's boundary count.
func forkFamily(t *testing.T, engine EngineKind, pos int) ([]Config, int) {
	t.Helper()
	geom := geometry.Geometry{SizeBytes: 32 << 10, Assoc: 16, BlockBytes: 32, SubarrayBytes: 1 << 10}
	if pos == l2Pos {
		geom = geometry.Geometry{SizeBytes: 512 << 10, Assoc: 16, BlockBytes: 64, SubarrayBytes: 4 << 10}
	}
	sched, err := core.BuildSchedule(geom, core.SelectiveWays)
	if err != nil {
		t.Fatal(err)
	}
	last := len(sched.Points) - 1
	base := sweepBase("gcc", engine, 20_000)
	base.Levels = slices.Clone(base.Levels)
	*base.cacheAt(pos) = CacheSpec{Geom: geom, Org: core.NonResizable}
	probe, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	interval := cacheReport(probe, pos).Accesses / uint64(last)

	member := func(missBound uint64, sizeBound, hold int) Config {
		c := base
		c.Levels = slices.Clone(base.Levels)
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

// cacheReport is r's report of the cache at machine position pos.
func cacheReport(r Result, pos int) CacheReport {
	switch pos {
	case dPos:
		return r.DCache
	case iPos:
		return r.ICache
	}
	return r.Levels[pos-l2Pos].CacheReport
}

// TestForkShapes drives a family of followers that fork off a walking
// leader at the first boundary, in the middle and at the run's last
// boundary; two ways at once from one machine; again off machines that
// were themselves forked; and, over the d-cache, into more machines
// than gangChunk. The family runs as one engine pass within its
// snapshot budget, and every member gets its gang-of-one Result. gcc's
// i-stream misses too few blocks per interval for its miss bounds to
// fork two ways at one boundary. Nor can the L2's: in a short run it
// misses on nearly every access, more than any miss bound allows, so
// every miss-bounded follower splits at the first boundary, where an
// upsize at full size stays put, and the later forks are size-bounded
// followers stopping one at a time. Only the d-cache rows check that
// the pass grows past gangChunk machines.
func TestForkShapes(t *testing.T) {
	for _, engine := range []EngineKind{OutOfOrder, InOrder} {
		for _, pos := range []int{dPos, iPos, l2Pos} {
			t.Run(fmt.Sprintf("%v/pos%d", engine, pos), func(t *testing.T) {
				t.Parallel()
				family, last := forkFamily(t, engine, pos)
				want := singles(t, family)
				leadTrace := cacheReport(want[0], pos).SizeTrace
				if len(leadTrace) != last || leadTrace[last-1] != last {
					t.Fatalf("the leader does not reach the smallest size at its last boundary: %v", leadTrace)
				}
				tr := checkForks(t, family, want, nil, pos)

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
				if pos != dPos {
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

// TestSharedL2ForksInOnePass: gcc's dynamic L2 sweep batch, whose
// followers split from their leaders at many boundaries of a level both
// L1s reach, forks inside one engine pass within the L2's snapshot
// budget, and every member gets its gang-of-one Result.
func TestSharedL2ForksInOnePass(t *testing.T) {
	gang := dynamicSweepBatch(t, sweepBase("gcc", OutOfOrder, 20_000), l2Pos, core.SelectiveWays)
	tr := checkForks(t, gang, singles(t, gang), nil, l2Pos)
	if len(tr.forks) == 0 {
		t.Error("no L2 follower forked")
	}
}

// TestForkedL3MatchAlone: a dynamic sweep batch over the L3 of an
// L2+L3 hierarchy, which one instruction can reach six times, forks
// inside one engine pass within the L3's snapshot budget, and every
// member gets its gang-of-one Result, on both engines.
func TestForkedL3MatchAlone(t *testing.T) {
	for _, engine := range []EngineKind{OutOfOrder, InOrder} {
		t.Run(engine.String(), func(t *testing.T) {
			t.Parallel()
			gang := forkBatch(t, withL3(sweepBase("gcc", engine, 20_000)), l3Pos, core.SelectiveWays)
			tr := checkForks(t, gang, singles(t, gang), nil, l3Pos)
			if len(tr.forks) == 0 {
				t.Error("no L3 follower forked")
			}
		})
	}
}

// TestShortIntervalsShareNothing: a dynamic cache whose interval is not
// longer than the accesses one instruction can make to it could cross
// two boundaries in one instruction, so configs that differ only in
// its thresholds do not share a machine; each still gets its gang-of-one
// Result.
func TestShortIntervalsShareNothing(t *testing.T) {
	for _, pos := range []int{dPos, l2Pos} {
		base := sweepBase("gcc", OutOfOrder, 20_000)
		var gang []Config
		for _, mb := range []uint64{0, 1 << 40} {
			c := base
			c.Levels = slices.Clone(base.Levels)
			*c.cacheAt(pos) = CacheSpec{Geom: base.cacheAt(pos).Geom, Org: core.SelectiveWays,
				Policy: PolicySpec{Kind: PolicyDynamic, Interval: forkReach(pos), MissBound: mb}}
			gang = append(gang, c)
		}
		if gang[0].ShareKey() == gang[1].ShareKey() {
			t.Errorf("pos %d: interval %d shares", pos, forkReach(pos))
		}
		checkForks(t, gang, singles(t, gang), nil, pos)
	}
}
