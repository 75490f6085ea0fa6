package figures

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"resizecache"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/simd"
)

// fastOpts trades fidelity for test speed; claim tests use tolerant
// thresholds accordingly. Full-fidelity numbers come from cmd/figures.
// 1M instructions covers at least one full phase period of every
// profile; shorter runs truncate phase structure and distort the
// profiling sweeps.
func fastOpts() Options {
	return Options{Instructions: 1_000_000}
}

func TestTable1RendersPaperSchedule(t *testing.T) {
	s, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"32K", "24K", "12K", "6K", "3K",
		"24K/3-way", "16K/4-way", "2K/2-way", "1K/1-way"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Table1 missing %q:\n%s", frag, s)
		}
	}
}

func TestTable2RendersBaseConfig(t *testing.T) {
	s := Table2()
	for _, frag := range []string{"4 instrs per cycle", "64 entries / 32 entries",
		"32K 2-way", "512K 4-way", "80 + 5 per 8 bytes"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Table2 missing %q:\n%s", frag, s)
		}
	}
}

func TestOrgGridCrossover(t *testing.T) {
	// The paper's organization conclusion: selective-sets wins at
	// associativity <= 4, selective-ways at >= 8 — checked at the
	// endpoints to keep the test affordable.
	if testing.Short() {
		t.Skip("multi-sweep in -short mode")
	}
	f, err := OrgGrid(context.Background(), resizecache.NewSession(),
		[]resizecache.Organization{resizecache.SelectiveWays, resizecache.SelectiveSets},
		[]int{2, 16}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []resizecache.Sides{resizecache.DOnly, resizecache.IOnly} {
		get := func(org resizecache.Organization, assoc int) float64 {
			v, ok := f.Cell(side, org, assoc)
			if !ok {
				t.Fatalf("%v: missing cell %v/%d", side, org, assoc)
			}
			return v
		}
		if get(resizecache.SelectiveSets, 2) <= get(resizecache.SelectiveWays, 2) {
			t.Errorf("%v: sets should win at 2-way (%.1f vs %.1f)", side,
				get(resizecache.SelectiveSets, 2), get(resizecache.SelectiveWays, 2))
		}
		if get(resizecache.SelectiveWays, 16) <= get(resizecache.SelectiveSets, 16) {
			t.Errorf("%v: ways should win at 16-way (%.1f vs %.1f)", side,
				get(resizecache.SelectiveWays, 16), get(resizecache.SelectiveSets, 16))
		}
	}
}

func TestHybridDominatesAtLowAssoc(t *testing.T) {
	// Paper Fig. 6: hybrid equals or improves on both organizations. Our
	// reproduction holds this strictly at <= 8-way; at 16-way the hybrid
	// pays its provisioned tag array and per-way tag banks (documented in
	// EXPERIMENTS.md), so the claim is checked at 4-way here.
	if testing.Short() {
		t.Skip("multi-sweep in -short mode")
	}
	f, err := OrgGrid(context.Background(), resizecache.NewSession(),
		[]resizecache.Organization{resizecache.Hybrid, resizecache.SelectiveWays, resizecache.SelectiveSets},
		[]int{4}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []resizecache.Sides{resizecache.DOnly, resizecache.IOnly} {
		get := func(org resizecache.Organization) float64 {
			v, _ := f.Cell(side, org, 4)
			return v
		}
		hy, wy, st := get(resizecache.Hybrid), get(resizecache.SelectiveWays), get(resizecache.SelectiveSets)
		if hy+0.3 < wy || hy+0.3 < st {
			t.Errorf("%v: hybrid %.1f%% should dominate ways %.1f%% and sets %.1f%%", side, hy, wy, st)
		}
	}
}

func TestDynamicBeatsStaticOnInOrderDCache(t *testing.T) {
	// Paper Fig. 7a: with d-miss latency exposed (in-order, blocking),
	// dynamic resizing clearly beats static on phase-varying apps.
	if testing.Short() {
		t.Skip("dynamic sweep in -short mode")
	}
	o := fastOpts()
	o.Apps = []string{"su2cor", "compress", "gcc", "vortex"}
	panel, err := StrategyPanel(context.Background(), resizecache.NewSession(),
		resizecache.DOnly, resizecache.InOrderEngine, o)
	if err != nil {
		t.Fatal(err)
	}
	_, _, se, de := panel.Averages()
	if de <= se {
		t.Errorf("in-order d-cache: dynamic %.1f%% should beat static %.1f%%", de, se)
	}
}

// tinyOpts runs one app at minimal fidelity — enough to exercise the
// plan plumbing without a full-fidelity sweep.
func tinyOpts() Options {
	return Options{Instructions: 60_000, Apps: []string{"m88ksim"}}
}

// TestFigureGridsRunAsBatchedPlans: each figure driver must execute its
// whole grid as one Session.Run plan — a single enqueue pass — and
// repeating an overlapping figure on the same session must reuse its
// sweeps without simulating.
func TestFigureGridsRunAsBatchedPlans(t *testing.T) {
	ctx := context.Background()
	s := resizecache.NewSession()
	var progressed int
	o := tinyOpts()
	o.Progress = func(done, total int) { progressed = done }
	if _, err := Figure4(ctx, s, o); err != nil {
		t.Fatal(err)
	}
	cold := s.Stats()
	if cold.EnqueueBatches != 1 {
		t.Errorf("Figure 4 used %d enqueue passes, want 1", cold.EnqueueBatches)
	}
	// 1 app × 2 orgs × 4 assocs × 2 sides.
	if progressed != 16 {
		t.Errorf("progress callback ended at %d, want 16", progressed)
	}

	// Figure 6 repeats every (ways, sets) cell of Figure 4; only the
	// hybrid sweeps are new work, and they ride one more batched pass.
	if _, err := Figure6(ctx, s, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	warm := s.Stats()
	if warm.ArtifactHits <= cold.ArtifactHits {
		t.Errorf("Figure 6 reused no sweeps from Figure 4: %+v", warm)
	}

	// Fully warm: re-rendering Figure 4 must not simulate or enqueue.
	if _, err := Figure4(ctx, s, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	again := s.Stats()
	if again.Runs != warm.Runs || again.Enqueued != warm.Enqueued {
		t.Errorf("warm Figure 4 did fresh work: %+v -> %+v", warm, again)
	}
}

func TestFigure9DecoupledRows(t *testing.T) {
	f, err := Figure9(context.Background(), resizecache.NewSession(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := f.Row("m88ksim")
	if !ok {
		t.Fatal("missing m88ksim row")
	}
	// m88ksim downsizes both caches: every size column is positive and
	// the combined reduction at least matches the larger standalone one
	// (each standalone column is normalized to the combined capacity).
	if r.DAloneSizeRedPct <= 0 || r.IAloneSizeRedPct <= 0 || r.BothSizeRedPct <= 0 {
		t.Errorf("size columns not positive: %+v", r)
	}
	if r.BothSizeRedPct+0.5 < r.DAloneSizeRedPct || r.BothSizeRedPct+0.5 < r.IAloneSizeRedPct {
		t.Errorf("combined size reduction below a standalone one: %+v", r)
	}
}

func TestPanelsRejectBothSides(t *testing.T) {
	ctx := context.Background()
	s := resizecache.NewSession()
	if _, err := Figure5(ctx, s, resizecache.BothSides, tinyOpts()); err == nil {
		t.Error("Figure5 accepted BothSides")
	}
	if _, err := StrategyPanel(ctx, s, resizecache.BothSides, resizecache.OutOfOrderEngine, tinyOpts()); err == nil {
		t.Error("StrategyPanel accepted BothSides")
	}
}

// TestFigureLevelArtifactCache: a figure's aggregate memoizes one tier
// above the per-sweep artifacts — re-rendering a warm figure resolves
// as one figure-level artifact hit without probing a single per-cell
// sweep, submitting a simulation, or enqueueing work.
func TestFigureLevelArtifactCache(t *testing.T) {
	ctx := context.Background()
	s := resizecache.NewSession()
	first, err := Figure4(ctx, s, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	cold := s.Stats()
	if cold.Runs == 0 {
		t.Fatalf("cold figure ran nothing: %+v", cold)
	}
	second, err := Figure4(ctx, s, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	warm := s.Stats()
	if warm.Runs != cold.Runs || warm.Submitted != cold.Submitted || warm.Enqueued != cold.Enqueued {
		t.Errorf("warm figure did fresh work: %+v -> %+v", cold, warm)
	}
	if got := warm.ArtifactHits - cold.ArtifactHits; got != 1 {
		t.Errorf("warm figure scored %d artifact hits, want exactly 1 (the figure-level aggregate)", got)
	}
	if len(second.DCache) != len(first.DCache) || second.DCache[0] != first.DCache[0] {
		t.Errorf("cached figure differs: %+v vs %+v", second, first)
	}
}

// figureKeyStore notes the key of every figure aggregate recorded
// through it. Figure payloads are JSON objects; the sweep Bests beside
// them are sealed strings.
type figureKeyStore struct {
	runner.Store
	mu   sync.Mutex
	keys []sim.Key
}

func (s *figureKeyStore) RecordArtifact(k sim.Key, data []byte) {
	if bytes.HasPrefix(data, []byte("{")) {
		s.mu.Lock()
		s.keys = append(s.keys, k)
		s.mu.Unlock()
	}
	s.Store.RecordArtifact(k, data)
}

// planCounter counts the plans a figure driver runs through it.
type planCounter struct {
	resizecache.Executor
	plans int
}

func (c *planCounter) Run(ctx context.Context, plan resizecache.Plan, opts ...resizecache.RunOption) <-chan resizecache.Result {
	c.plans++
	return c.Executor.Run(ctx, plan, opts...)
}

// startDaemon serves a simd daemon over store on a unix socket until
// the test ends.
func startDaemon(t *testing.T, store runner.Store) string {
	t.Helper()
	srv, err := simd.New(simd.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "s.sock")
	ln, err := simd.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return addr
}

// TestUndecodableFigureArtifactRecomputesOnce: a stored figure
// aggregate that no longer decodes is a miss, on a Session and on a
// daemon-backed RemoteSession alike. The render re-aggregates once from
// the warm sweeps, simulating nothing, and records the fresh aggregate,
// so a fresh executor on the same store hits.
func TestUndecodableFigureArtifactRecomputesOnce(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		// over returns a constructor of fresh executors sharing store.
		over func(t *testing.T, store runner.Store) func() resizecache.Executor
	}{
		{"session", func(t *testing.T, store runner.Store) func() resizecache.Executor {
			return func() resizecache.Executor {
				s, err := resizecache.NewSessionWith(resizecache.SessionOptions{Store: store})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}},
		{"remote", func(t *testing.T, store runner.Store) func() resizecache.Executor {
			addr := startDaemon(t, store)
			return func() resizecache.Executor {
				s, err := resizecache.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := runner.NewMemStore()
			store := &figureKeyStore{Store: mem}
			fresh := tc.over(t, store)
			first, err := Figure4(ctx, fresh(), tinyOpts())
			if err != nil {
				t.Fatal(err)
			}
			if len(store.keys) != 1 {
				t.Fatalf("cold figure recorded %d figure aggregates, want 1", len(store.keys))
			}
			key := store.keys[0]
			mem.RecordArtifact(key, []byte("[1,2,3]")) // valid JSON, not a Fig4Result

			repair := &planCounter{Executor: fresh()}
			before := repair.Stats()
			got, err := Figure4(ctx, repair, tinyOpts())
			if err != nil {
				t.Fatal(err)
			}
			d := repair.Stats().Delta(before)
			if repair.plans != 1 || d.Runs != 0 {
				t.Errorf("repair ran %d plans and %d simulations, want 1 plan over warm sweeps and 0 simulations", repair.plans, d.Runs)
			}
			if _, local := repair.Executor.(*resizecache.Session); local && d.ArtifactComputes != 1 {
				t.Errorf("repair computed %d artifacts, want 1 (the figure)", d.ArtifactComputes)
			}
			if !reflect.DeepEqual(got, first) {
				t.Errorf("repaired figure differs:\n got %+v\nwant %+v", got, first)
			}
			if data, _ := mem.LookupArtifact(key); string(data) == "[1,2,3]" {
				t.Error("the undecodable aggregate is still stored")
			}

			warm := &planCounter{Executor: fresh()}
			before = warm.Stats()
			again, err := Figure4(ctx, warm, tinyOpts())
			if err != nil {
				t.Fatal(err)
			}
			d = warm.Stats().Delta(before)
			if warm.plans != 0 || d.Runs != 0 {
				t.Errorf("fresh executor after the repair ran %d plans and %d simulations, want 0", warm.plans, d.Runs)
			}
			if _, local := warm.Executor.(*resizecache.Session); local && (d.ArtifactStoreHits != 1 || d.ArtifactComputes != 0) {
				t.Errorf("fresh session after the repair: %+v, want 1 artifact store hit and no computes", d)
			}
			if !reflect.DeepEqual(again, first) {
				t.Errorf("figure after the repair differs:\n got %+v\nwant %+v", again, first)
			}
		})
	}
}

// TestFigureL2Plumbing: the L2 figure runs end to end on a tiny grid.
func TestFigureL2Plumbing(t *testing.T) {
	f, err := FigureL2(context.Background(), resizecache.NewSession(), resizecache.Static, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 organizations", len(f.Rows))
	}
	r, ok := f.Row(resizecache.SelectiveWays)
	if !ok {
		t.Fatal("missing selective-ways row")
	}
	if r.Energy.L2Pct <= 0 {
		t.Errorf("no L2 energy share: %+v", r)
	}
	if s := f.Render(); !strings.Contains(s, "selective-ways") {
		t.Errorf("render missing organization rows:\n%s", s)
	}
}

// TestFigureL2ResizingPaysOff: the hierarchy-as-data claim test — the
// suite's working sets sit far below 512K, so resizing the L2 alone
// must shrink it substantially and reduce processor energy-delay.
func TestFigureL2ResizingPaysOff(t *testing.T) {
	if testing.Short() {
		t.Skip("L2 sweep in -short mode")
	}
	o := fastOpts()
	o.Apps = []string{"m88ksim", "compress", "gcc"}
	f, err := FigureL2(context.Background(), resizecache.NewSession(), resizecache.Static, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range []resizecache.Organization{resizecache.SelectiveWays, resizecache.SelectiveSets} {
		r, ok := f.Row(org)
		if !ok {
			t.Fatalf("missing %v row", org)
		}
		if r.L2SizeRedPct <= 10 {
			t.Errorf("%v: L2 barely shrank (%.1f%%)", org, r.L2SizeRedPct)
		}
		if r.EDPReductionPct <= 0 {
			t.Errorf("%v: no EDP gain from L2 resizing (%.1f%%)", org, r.EDPReductionPct)
		}
	}
}
