package sim

import (
	"fmt"
	"reflect"
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
	"resizecache/internal/workload"
)

// sweepBase is the non-resizable baseline a profiling sweep derives its
// candidates from, built as internal/experiment builds it: 32K 2-way
// L1s and the default L2.
func sweepBase(app string, engine EngineKind, instr uint64) Config {
	l1 := geometry.Geometry{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 32, SubarrayBytes: 1 << 10}
	cfg := Default(app)
	cfg.Engine = engine
	cfg.Instructions = instr
	cfg.DCache = CacheSpec{Geom: l1, Org: core.NonResizable}
	cfg.ICache = CacheSpec{Geom: l1, Org: core.NonResizable}
	return cfg
}

// dynamicSweepBatch is one dynamic profiling sweep's batch over the
// cache at pos, built as internal/experiment's Sweep builds it: the
// baseline, then one candidate per point of the controller's parameter
// grid (dynamicCandidates there) — three intervals, miss-bounds as
// fractions of the interval, every offered size below full as a size
// bound, and hold counts 0 and 3.
func dynamicSweepBatch(t *testing.T, base Config, pos int, org core.Organization) []Config {
	t.Helper()
	spec := base.cacheAt(pos)
	sched, err := core.BuildSchedule(spec.Geom, org)
	if err != nil {
		t.Fatal(err)
	}
	intervals := []uint64{4096, 16384, 65536}
	if pos == l2Pos {
		intervals = []uint64{128, 1024, 8192}
	}
	sizeBounds := sched.Points[1:]
	if len(sizeBounds) == 0 {
		sizeBounds = []core.SizePoint{{Bytes: sched.Geom.SizeBytes}}
	}
	batch := []Config{base}
	for _, iv := range intervals {
		prevMB := ^uint64(0)
		for _, mf := range []float64{0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15} {
			mb := uint64(mf * float64(iv))
			if mb == prevMB {
				continue
			}
			prevMB = mb
			for _, sb := range sizeBounds {
				for _, h := range []int{0, 3} {
					cfg := base
					if pos == l2Pos {
						cfg.Levels = append([]LevelSpec(nil), base.Levels...)
					}
					c := cfg.cacheAt(pos)
					c.Org = org
					c.Policy = PolicySpec{Kind: PolicyDynamic, Interval: iv,
						MissBound: mb, SizeBoundBytes: sb.Bytes, UpsizeHoldIntervals: h}
					batch = append(batch, cfg)
				}
			}
		}
	}
	return batch
}

// cacheAt returns the spec of the cache at machine position pos.
func (c *Config) cacheAt(pos int) *CacheSpec {
	switch pos {
	case dPos:
		return &c.DCache
	case iPos:
		return &c.ICache
	}
	return &c.Levels[pos-2].CacheSpec
}

// checkMatchesAlone runs gang as one RunGang, in submission order and
// reversed, and checks every member's Result against want, its gang of
// one.
func checkMatchesAlone(t *testing.T, gang []Config, want []Result, run func([]Config) ([]Result, error)) {
	t.Helper()
	reversed := make([]Config, len(gang))
	for i, c := range gang {
		reversed[len(gang)-1-i] = c
	}
	got, err := run(gang)
	if err != nil {
		t.Fatal(err)
	}
	gotReversed, err := run(reversed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gang {
		if !reflect.DeepEqual(got[i], want[i]) {
			diffResult(t, fmt.Sprintf("member %d", i), want[i], got[i])
		}
		if r := gotReversed[len(gang)-1-i]; !reflect.DeepEqual(r, want[i]) {
			diffResult(t, fmt.Sprintf("reversed member %d", i), want[i], r)
		}
	}
}

var sweepOrgs = []core.Organization{core.SelectiveWays, core.SelectiveSets, core.Hybrid}

// TestSharedMembersMatchAlone: a whole dynamic sweep batch run as one
// gang — where candidates that differ only in their thresholds share a
// machine until their controllers disagree — gives every candidate its
// gang-of-one Result, in submission order and reversed, over both
// engines, each resized cache and every organization.
func TestSharedMembersMatchAlone(t *testing.T) {
	apps := workload.Names()
	if testing.Short() {
		apps = []string{"m88ksim", "su2cor"}
	}
	for _, app := range apps {
		for _, engine := range []EngineKind{OutOfOrder, InOrder} {
			for _, pos := range []int{dPos, iPos, l2Pos} {
				for _, org := range sweepOrgs {
					name := fmt.Sprintf("%s/%v/pos%d/%v", app, engine, pos, org)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						gang := dynamicSweepBatch(t, sweepBase(app, engine, 20_000), pos, org)
						checkMatchesAlone(t, gang, singles(t, gang), RunGang)
					})
				}
			}
		}
	}
}

// sharedSampling is a dense sampling schedule that leaves a 40K run
// enough detailed accesses for the controllers to cross interval
// boundaries.
func sharedSampling() SamplingSpec {
	return SamplingSpec{WarmupInstructions: 2_000, DetailedInstructions: 5_000,
		FastForwardInstructions: 1_000, SkipInstructions: 1_000}
}

// TestSharedMembersMatchAloneSampled is TestSharedMembersMatchAlone for
// sampled gangs against a warmup checkpoint store. A gang makes one
// pass per chunk, so the restore it exercises is checkMatchesAlone's
// second, reversed run, which restores the checkpoint the first run
// saved.
func TestSharedMembersMatchAloneSampled(t *testing.T) {
	apps := []string{"m88ksim", "su2cor"}
	if testing.Short() {
		apps = apps[:1]
	}
	for _, app := range apps {
		for _, engine := range []EngineKind{OutOfOrder, InOrder} {
			for _, pos := range []int{dPos, l2Pos} {
				for _, org := range sweepOrgs {
					name := fmt.Sprintf("%s/%v/pos%d/%v", app, engine, pos, org)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						base := sweepBase(app, engine, 40_000)
						base.Sampling = sharedSampling()
						gang := dynamicSweepBatch(t, base, pos, org)
						want := singles(t, gang)
						store := newMapStore()
						checkMatchesAlone(t, gang, want, func(cfgs []Config) ([]Result, error) {
							out, _, err := (*Streams)(nil).RunGang(cfgs, store)
							return out, err
						})
					})
				}
			}
		}
	}
}

// splitBoundary is the interval boundary, counted from 1, at which two
// runs' size traces first differ; 0 if they never do.
func splitBoundary(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i + 1
		}
	}
	return 0
}

// TestSharedForcedDivergence drives a leader and followers whose
// controllers split where the test puts them — at the first boundary,
// at the last step of a long walk down the schedule, or never — and
// checks every member against its gang of one, in both orders.
func TestSharedForcedDivergence(t *testing.T) {
	// 32K 16-way selective-ways offers 16 sizes, 2K apart.
	geom := geometry.Geometry{SizeBytes: 32 << 10, Assoc: 16, BlockBytes: 32, SubarrayBytes: 1 << 10}
	sched, err := core.BuildSchedule(geom, core.SelectiveWays)
	if err != nil {
		t.Fatal(err)
	}
	last := len(sched.Points) - 1
	base := sweepBase("gcc", OutOfOrder, 20_000)
	base.DCache.Geom = geom
	probe, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// A few boundaries past the full walk down.
	interval := probe.DCache.Accesses / uint64(last+3)

	member := func(missBound uint64, sizeBound, hold int) Config {
		c := base
		c.DCache.Org = core.SelectiveWays
		c.DCache.Policy = PolicySpec{Kind: PolicyDynamic, Interval: interval,
			MissBound: missBound, SizeBoundBytes: sizeBound, UpsizeHoldIntervals: hold}
		return c
	}
	const never = 1 << 40 // no interval misses this many: always downsize
	// walk goes down one size per boundary to the smallest and stays.
	walk := member(never, 0, 0)
	cases := []struct {
		name     string
		follower Config
		split    int
	}{
		// Upsizing at full size is a no-op: the follower stays where the
		// leader moves down.
		{"first boundary", member(0, 0, 0), 1},
		// The size bound stops the follower one size above the smallest.
		{"late", member(never, sched.Points[last-1].Bytes, 0), last},
		// A different bound and hold that never change a decision.
		{"none", member(never+1, 0, 3), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gang := []Config{walk, tc.follower, walk}
			gang[2].DCache.Policy.UpsizeHoldIntervals = 1
			want := singles(t, gang)
			if got := splitBoundary(want[0].DCache.SizeTrace, want[1].DCache.SizeTrace); got != tc.split {
				t.Fatalf("alone, the follower splits at boundary %d, want %d (traces %v, %v)",
					got, tc.split, want[0].DCache.SizeTrace, want[1].DCache.SizeTrace)
			}
			if tc.split == last && tc.split < len(want[0].DCache.SizeTrace)*3/4 {
				t.Fatalf("late split at boundary %d of %d", tc.split, len(want[0].DCache.SizeTrace))
			}
			if gang[0].ShareKey() != tc.follower.ShareKey() {
				t.Fatal("leader and follower do not share")
			}
			checkMatchesAlone(t, gang, want, RunGang)
		})
	}
}

// TestSharedResultsNotAliased: members that finish attached to one
// machine get copies of its Result — mutating one member's size trace,
// levels or sample report leaves the others' unchanged.
func TestSharedResultsNotAliased(t *testing.T) {
	base := sweepBase("gcc", OutOfOrder, 40_000)
	base.Sampling = sharedSampling()
	base.DCache.Org = core.SelectiveSets
	var gang []Config
	for hold := range 3 {
		c := base
		c.DCache.Policy = PolicySpec{Kind: PolicyDynamic, Interval: 1024,
			MissBound: 1 << 40, UpsizeHoldIntervals: hold}
		gang = append(gang, c)
	}
	got, err := RunGang(gang)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].DCache.SizeTrace) == 0 || len(got[0].Levels) == 0 || got[0].Sample == nil {
		t.Fatalf("nothing to alias: %+v", got[0])
	}
	want := singles(t, gang)
	got[1].DCache.SizeTrace[0] = -1
	got[1].Levels[0].Name = "mutated"
	got[1].Sample.Windows = -1
	for _, i := range []int{0, 2} {
		if !reflect.DeepEqual(got[i], want[i]) {
			diffResult(t, fmt.Sprintf("member %d after mutating member 1", i), want[i], got[i])
		}
	}
}

// TestShareKeyProjection: ShareKey ignores exactly the thresholds of a
// config's one dynamic policy. Changing a threshold keeps it; changing
// the interval, the organization, a geometry, the engine or a second
// level's policy moves it; with no dynamic policy, or two, it is Key.
func TestShareKeyProjection(t *testing.T) {
	base := sweepBase("gcc", OutOfOrder, 20_000)
	base.DCache.Org = core.SelectiveSets
	base.DCache.Policy = PolicySpec{Kind: PolicyDynamic, Interval: 4096,
		MissBound: 40, SizeBoundBytes: 8 << 10, UpsizeHoldIntervals: 3}
	k := base.ShareKey()
	if k == base.Key() {
		t.Fatal("ShareKey of a dynamic config is its Key")
	}

	kept := map[string]func(*Config){
		"miss-bound": func(c *Config) { c.DCache.Policy.MissBound = 7 },
		"size-bound": func(c *Config) { c.DCache.Policy.SizeBoundBytes = 2 << 10 },
		"hold":       func(c *Config) { c.DCache.Policy.UpsizeHoldIntervals = 0 },
	}
	for name, mutate := range kept {
		c := base
		mutate(&c)
		if c.Key() == base.Key() {
			t.Fatalf("%s: mutation changed nothing", name)
		}
		if c.ShareKey() != k {
			t.Errorf("ShareKey sensitive to threshold %s", name)
		}
	}

	moved := map[string]func(*Config){
		"interval": func(c *Config) { c.DCache.Policy.Interval = 16384 },
		"org":      func(c *Config) { c.DCache.Org = core.Hybrid },
		"geometry": func(c *Config) { c.DCache.Geom.Assoc = 4 },
		"engine":   func(c *Config) { c.Engine = InOrder },
		"l2-policy": func(c *Config) {
			c.Levels = append([]LevelSpec(nil), c.Levels...)
			c.Levels[0].Org = core.SelectiveWays
			c.Levels[0].Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1}
		},
	}
	for name, mutate := range moved {
		c := base
		mutate(&c)
		if c.ShareKey() == k {
			t.Errorf("ShareKey insensitive to %s", name)
		}
	}

	// A shared level's thresholds are projected out the same way, on a
	// copy: the config's own Levels stay untouched.
	l2 := sweepBase("gcc", OutOfOrder, 20_000)
	l2.Levels[0].Org = core.SelectiveWays
	l2.Levels[0].Policy = PolicySpec{Kind: PolicyDynamic, Interval: 128, MissBound: 9}
	other := l2
	other.Levels = append([]LevelSpec(nil), l2.Levels...)
	other.Levels[0].Policy.MissBound = 3
	if l2.ShareKey() != other.ShareKey() || l2.Levels[0].Policy.MissBound != 9 {
		t.Error("shared level's thresholds not projected out, or projected in place")
	}

	static := base
	static.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 2}
	two := base
	two.ICache = two.DCache
	for name, c := range map[string]Config{"static": static, "two dynamic": two} {
		if c.ShareKey() != c.Key() {
			t.Errorf("%s: ShareKey is not Key", name)
		}
	}
	twoOther := two
	twoOther.ICache.Policy.MissBound++
	if twoOther.ShareKey() == two.ShareKey() {
		t.Error("two dynamic levels share across a threshold")
	}
}
