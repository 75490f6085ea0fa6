package runner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resizecache/internal/core"
	"resizecache/internal/sim"
)

// gangCfgN returns configs that share a simulation front-end (same
// benchmark, budget, engine, pipeline) but have distinct fingerprints —
// the shape of one benchmark's sweep cells.
func gangCfgN(bench string, i int) sim.Config {
	c := sim.Default(bench)
	c.Instructions = 5000
	c.MSHREntries = 8 + i
	return c
}

// gangRecorder is a RunGang stub that records dispatched batches. A
// batch of one is a config simulated alone, not a coalesced gang.
type gangRecorder struct {
	mu      sync.Mutex
	batches [][]sim.Config
	groups  [][][]int // each batch's share groups
}

func (g *gangRecorder) run(gang sim.Gang) error {
	cfgs := make([]sim.Config, len(gang.Cfgs))
	for i, cfg := range gang.Cfgs {
		cfgs[i] = *cfg
		*gang.Out[i] = stubResult(*cfg)
	}
	g.mu.Lock()
	g.batches = append(g.batches, cfgs)
	g.groups = append(g.groups, gang.Groups)
	g.mu.Unlock()
	return nil
}

// sizes returns the sizes of the coalesced gangs (batches of two or
// more), sorted.
func (g *gangRecorder) sizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var sizes []int
	for _, b := range g.batches {
		if len(b) > 1 {
			sizes = append(sizes, len(b))
		}
	}
	sort.Ints(sizes)
	return sizes
}

// alone counts the configs simulated as gangs of one.
func (g *gangRecorder) alone() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, b := range g.batches {
		if len(b) == 1 {
			n++
		}
	}
	return n
}

func TestEnqueueCoalescesGangs(t *testing.T) {
	rec := &gangRecorder{}
	r := New(Options{Workers: 2, RunGang: rec.run})
	ctx := context.Background()

	cfgs := make([]sim.Config, 10)
	for i := range cfgs {
		cfgs[i] = gangCfgN("gcc", i)
	}
	n, wait := r.Enqueue(ctx, Jobs(cfgs))
	wait()
	if n != 10 {
		t.Fatalf("enqueued %d, want 10", n)
	}
	// Default gang size 8: one full gang plus the 2-member remainder.
	if got := rec.sizes(); !reflect.DeepEqual(got, []int{2, 8}) {
		t.Errorf("gang batch sizes = %v, want [2 8]", got)
	}
	if got := rec.alone(); got != 0 {
		t.Errorf("%d solo simulations, want 0", got)
	}
	st := r.Stats()
	if st.Ganged != 10 || st.GangBatches != 2 || st.Runs != 10 {
		t.Errorf("stats = %+v, want 10 ganged / 2 gang batches / 10 runs", st)
	}

	// Outcomes published to the normal memo entries.
	for i := range cfgs {
		res, err := r.Run(ctx, cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, stubResult(cfgs[i])) {
			t.Errorf("config %d: wrong gang result", i)
		}
	}
	if st := r.Stats(); st.MemoHits != 10 {
		t.Errorf("memo hits = %d, want 10", st.MemoHits)
	}
}

func TestEnqueueGangsOnlyWithinFrontGroups(t *testing.T) {
	rec := &gangRecorder{}
	r := New(Options{Workers: 2, RunGang: rec.run})
	var cfgs []sim.Config
	for i := 0; i < 3; i++ {
		cfgs = append(cfgs, gangCfgN("gcc", i), gangCfgN("vpr", i))
	}
	_, wait := r.Enqueue(context.Background(), Jobs(cfgs))
	wait()

	if got := rec.sizes(); !reflect.DeepEqual(got, []int{3, 3}) {
		t.Fatalf("gang batch sizes = %v, want [3 3]", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, batch := range rec.batches {
		front := batch[0].FrontKey()
		for _, cfg := range batch[1:] {
			if cfg.FrontKey() != front {
				t.Errorf("mixed-front gang dispatched: %s with %s",
					batch[0].Benchmark, cfg.Benchmark)
			}
		}
	}
}

func TestEnqueueSingletonGroupsRunSolo(t *testing.T) {
	rec := &gangRecorder{}
	r := New(Options{Workers: 2, RunGang: rec.run})
	// Three distinct fronts, one config each: nothing to coalesce.
	cfgs := []sim.Config{cfgN(1), cfgN(2), cfgN(3)}
	_, wait := r.Enqueue(context.Background(), Jobs(cfgs))
	wait()
	if len(rec.sizes()) != 0 {
		t.Errorf("gang dispatched for singleton groups: %v", rec.sizes())
	}
	if got := rec.alone(); got != 3 {
		t.Errorf("%d solo simulations, want 3", got)
	}
	if st := r.Stats(); st.Ganged != 0 || st.GangBatches != 0 {
		t.Errorf("stats = %+v, want no ganging", st)
	}
}

func TestGangErrorFallsBackToSolo(t *testing.T) {
	var solo atomic.Int32
	r := New(Options{Workers: 2,
		RunGang: stub(func(cfgs []sim.Config) ([]sim.Result, error) {
			if len(cfgs) > 1 {
				return nil, errors.New("gang refused")
			}
			solo.Add(1)
			return []sim.Result{stubResult(cfgs[0])}, nil
		}),
	})
	ctx := context.Background()
	cfgs := make([]sim.Config, 3)
	for i := range cfgs {
		cfgs[i] = gangCfgN("gcc", i)
	}
	_, wait := r.Enqueue(ctx, Jobs(cfgs))
	wait()
	if got := solo.Load(); got != 3 {
		t.Errorf("%d solo fallback simulations, want 3", got)
	}
	st := r.Stats()
	if st.Ganged != 0 || st.GangBatches != 0 || st.Runs != 3 {
		t.Errorf("stats = %+v, want 0 ganged / 3 runs", st)
	}
	for i := range cfgs {
		res, err := r.Run(ctx, cfgs[i])
		if err != nil || !reflect.DeepEqual(res, stubResult(cfgs[i])) {
			t.Errorf("config %d: fallback result wrong (%v)", i, err)
		}
	}
}

func TestGangSkipsStoreHits(t *testing.T) {
	store := NewMemStore()
	hit := gangCfgN("gcc", 0)
	store.Record(hit.Key(), StoredResult{Result: stubResult(hit)})

	rec := &gangRecorder{}
	r := New(Options{Workers: 2, Store: store, RunGang: rec.run})
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = gangCfgN("gcc", i)
	}
	_, wait := r.Enqueue(context.Background(), Jobs(cfgs))
	wait()

	if got := rec.sizes(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("gang batch sizes = %v, want [3]", got)
	}
	st := r.Stats()
	if st.StoreHits != 1 || st.Ganged != 3 {
		t.Errorf("stats = %+v, want 1 store hit / 3 ganged", st)
	}
}

// TestRealGangThroughRunner: with the real sim entry point, enqueued
// same-front configs gang and produce results bit-identical to sim.Run
// (a gang of one).
func TestRealGangThroughRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	r := New(Options{Workers: 2})
	ctx := context.Background()
	var cfgs []sim.Config
	for _, kb := range []int{16, 32, 64} {
		c := sim.Default("gcc")
		c.Instructions = 20_000
		c.DCache.Geom.SizeBytes = kb << 10
		cfgs = append(cfgs, c)
	}
	_, wait := r.Enqueue(ctx, Jobs(cfgs))
	wait()
	if st := r.Stats(); st.Ganged != 3 || st.GangBatches != 1 {
		t.Fatalf("stats = %+v, want 3 ganged in 1 batch", st)
	}
	for i, cfg := range cfgs {
		got, err := r.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: ganged result differs from sim.Run", i)
		}
	}
}

// TestRunAllGangsColdBatch: a cold RunAll enqueues its own batch, so
// same-front configs coalesce into gangs, and each result equals the
// config's own Run on a fresh runner (a gang of one).
func TestRunAllGangsColdBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	ctx := context.Background()
	var cfgs []sim.Config
	for _, kb := range []int{16, 32, 64} {
		c := sim.Default("gcc")
		c.Instructions = 20_000
		c.DCache.Geom.SizeBytes = kb << 10
		cfgs = append(cfgs, c)
	}
	r := New(Options{Workers: 2})
	res, err := r.RunAll(ctx, Jobs(cfgs))
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Ganged == 0 {
		t.Fatalf("stats = %+v, want the cold batch ganged", st)
	}
	alone := New(Options{Workers: 1})
	for i, cfg := range cfgs {
		want, err := alone.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("config %d: RunAll result differs from its own Run", i)
		}
	}
}

// TestEnqueueKeepsSharedClassesWhole: same-front configs that differ
// only in the thresholds of their dynamic policy (one share class,
// sim.Config.ShareKey) gang together whatever their submission order,
// no class is split across gangs, a gang takes at most gangSize
// classes, and each result equals the config's own Run.
func TestEnqueueKeepsSharedClassesWhole(t *testing.T) {
	const classes, perClass = 2*gangSize + 3, 5
	var cfgs []sim.Config
	for i := 0; i < classes*perClass; i++ {
		c := gangCfgN("gcc", 0)
		c.DCache.Org = core.SelectiveSets
		// Interleaved: submission order cycles through the classes.
		c.DCache.Policy = sim.PolicySpec{Kind: sim.PolicyDynamic,
			Interval: 1024 * uint64(1+i%classes), MissBound: uint64(i), UpsizeHoldIntervals: i % 2}
		cfgs = append(cfgs, c)
	}
	rec := &gangRecorder{}
	r := New(Options{Workers: 2, RunGang: rec.run})
	ctx := context.Background()
	res, err := r.RunAll(ctx, Jobs(cfgs))
	if err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	batches := rec.batches
	rec.mu.Unlock()
	batchOf := make(map[sim.Key]int) // share key → the batch that ran it
	var perBatch []int
	ran := 0
	for b, batch := range batches {
		seen := make(map[sim.Key]bool)
		for _, c := range batch {
			k := c.ShareKey()
			if prev, ok := batchOf[k]; ok && prev != b {
				t.Errorf("share class split across batches %d and %d", prev, b)
			}
			batchOf[k] = b
			seen[k] = true
		}
		// The gang gets the batch's share classes as its groups: the
		// partition by ShareKey, in order of first appearance.
		var want [][]int
		at := make(map[sim.Key]int)
		for i, c := range batch {
			n, ok := at[c.ShareKey()]
			if !ok {
				n = len(want)
				at[c.ShareKey()] = n
				want = append(want, nil)
			}
			want[n] = append(want[n], i)
		}
		if got := rec.groups[b]; !reflect.DeepEqual(got, want) {
			t.Errorf("batch %d handed share groups %v, want %v", b, got, want)
		}
		perBatch = append(perBatch, len(seen))
		ran += len(batch)
	}
	sort.Ints(perBatch)
	if want := []int{3, gangSize, gangSize}; !reflect.DeepEqual(perBatch, want) {
		t.Errorf("batches hold %v share classes, want %v", perBatch, want)
	}
	if ran != len(cfgs) || len(batchOf) != classes {
		t.Errorf("ran %d configs in %d classes, want %d in %d", ran, len(batchOf), len(cfgs), classes)
	}
	if st := r.Stats(); st.Runs != uint64(len(cfgs)) || st.Ganged != uint64(len(cfgs)) || st.GangBatches != 3 {
		t.Errorf("stats = %+v, want every config counted as a ganged run in 3 batches", st)
	}

	alone := New(Options{Workers: 1, RunGang: (&gangRecorder{}).run})
	for i, cfg := range cfgs {
		want, err := alone.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("config %d: result differs from its own Run", i)
		}
	}
}

// TestRunAllGoroutinesBoundedByGangs: while a batch of same-front
// configs is blocked in the simulator, RunAll holds about one goroutine
// per gang, not one per config.
func TestRunAllGoroutinesBoundedByGangs(t *testing.T) {
	const n = 200
	started := make(chan struct{}, n)
	release := make(chan struct{})
	r := New(Options{Workers: 2, RunGang: stub(func(cfgs []sim.Config) ([]sim.Result, error) {
		started <- struct{}{}
		<-release
		out := make([]sim.Result, len(cfgs))
		for i, cfg := range cfgs {
			out[i] = stubResult(cfg)
		}
		return out, nil
	})})
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		cfgs[i] = gangCfgN("gcc", i)
	}
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := r.RunAll(context.Background(), Jobs(cfgs))
		done <- err
	}()
	<-started
	peak := 0
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		peak = max(peak, runtime.NumGoroutine())
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if limit := n/gangSize + 8; peak-base >= limit {
		t.Errorf("goroutines grew by %d while blocked, want < %d", peak-base, limit)
	}
	if st := r.Stats(); st.Ganged != n {
		t.Errorf("stats = %+v, want all %d configs ganged", st, n)
	}
}

// recordCountingStore counts result records reaching the backend.
type recordCountingStore struct {
	Store
	records atomic.Int64
}

func (s *recordCountingStore) Record(k sim.Key, v StoredResult) {
	s.records.Add(1)
	s.Store.Record(k, v)
}

// TestRunAllFailureCancelsAndDrains: RunAll returns the first error by
// submission index without waiting for the rest of the batch to run.
// The work it enqueued and never started is cancelled, the simulation
// already running finishes before RunAll returns, and nothing records
// into the store afterwards.
func TestRunAllFailureCancelsAndDrains(t *testing.T) {
	const n = 16
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		cfgs[i] = cfgN(i)
	}
	// Configs 1 and 3 fail from the store, without a worker slot; the
	// rest simulate, one at a time, blocked until released.
	mem := NewMemStore()
	mem.Record(cfgs[0].Key(), StoredResult{Result: stubResult(cfgs[0])})
	mem.Record(cfgs[1].Key(), StoredResult{Err: "boom 1"})
	mem.Record(cfgs[3].Key(), StoredResult{Err: "boom 3"})
	store := &recordCountingStore{Store: mem}
	release := make(chan struct{})
	var active atomic.Int32
	r := New(Options{Workers: 1, Store: store, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		active.Add(1)
		defer active.Add(-1)
		<-release
		return stubResult(cfg), nil
	})})

	done := make(chan error, 1)
	go func() {
		_, err := r.RunAll(context.Background(), Jobs(cfgs))
		done <- err
	}()
	// Release the running simulation once everything queued behind it
	// has been cancelled: only the three stored configs and the running
	// one keep an entry. Give up after a while so a runner that never
	// cancels fails below instead of hanging.
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		r.results.mu.Lock()
		left := len(r.results.slots)
		r.results.mu.Unlock()
		if left == 4 && active.Load() == 1 {
			break
		}
	}
	close(release)
	err := <-done
	var se *StoredError
	if !errors.As(err, &se) || se.Msg != "boom 1" || !strings.Contains(err.Error(), "config 1 ") {
		t.Fatalf("err = %v, want config 1's stored error", err)
	}
	if a := active.Load(); a != 0 {
		t.Errorf("%d simulations still running after RunAll returned", a)
	}
	recorded := store.records.Load()
	time.Sleep(20 * time.Millisecond)
	if got := store.records.Load(); got != recorded {
		t.Errorf("store recorded %d results after RunAll returned", got-recorded)
	}
	if st := r.Stats(); st.Runs != 1 {
		t.Errorf("simulated %d configs, want only the one already running", st.Runs)
	}
}

// TestExecuteAccounting pins what each way into the one execute path
// counts: a simulation that runs alone — a lone Run, an Enqueue
// straggler, a gang member re-run after its gang failed, or the one
// member of a gang the store did not answer — adds to Runs (and Errors
// when it fails) but not to Ganged or GangBatches; a live gang of N adds
// N to Runs and Ganged and 1 to GangBatches.
func TestExecuteAccounting(t *testing.T) {
	// failing shares the other configs' front end, so it gangs with them.
	failing := gangCfgN("gcc", 99)
	fails := func(c sim.Config) bool { return c.MSHREntries == failing.MSHREntries }
	run := func(g sim.Gang) error {
		for _, c := range g.Cfgs {
			if fails(*c) {
				return errors.New("refused")
			}
		}
		return (&gangRecorder{}).run(g)
	}
	gang := func(n int) []sim.Config {
		cfgs := make([]sim.Config, n)
		for i := range cfgs {
			cfgs[i] = gangCfgN("gcc", i)
		}
		return cfgs
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name        string
		stored      int // leading configs the store already holds
		submit      func(r *Runner, cfgs []sim.Config)
		cfgs        []sim.Config
		runs, errs  uint64
		ganged, gbs uint64
	}{
		{"lone Run", 0, runEach, gang(1), 1, 0, 0, 0},
		{"lone failing Run", 0, runEach, []sim.Config{failing}, 1, 1, 0, 0},
		{"Enqueue straggler", 0, enqueue, gang(1), 1, 0, 0, 0},
		{"failing Enqueue straggler", 0, enqueue, []sim.Config{failing}, 1, 1, 0, 0},
		{"gang-error fallback", 0, enqueue, append(gang(3), failing), 4, 1, 0, 0},
		{"one live member after store hits", 3, enqueue, gang(4), 1, 0, 0, 0},
		{"live gang", 0, enqueue, gang(5), 5, 0, 5, 1},
		{"live gang after a store hit", 1, enqueue, gang(5), 4, 0, 4, 1},
	} {
		store := NewMemStore()
		for _, c := range tc.cfgs[:tc.stored] {
			store.Record(c.Key(), StoredResult{Result: stubResult(c)})
		}
		r := New(Options{Workers: 2, Store: store, RunGang: run})
		tc.submit(r, tc.cfgs)
		st := r.Stats()
		if st.Runs != tc.runs || st.Errors != tc.errs || st.Ganged != tc.ganged || st.GangBatches != tc.gbs {
			t.Errorf("%s: runs %d, errors %d, ganged %d, gang batches %d; want %d, %d, %d, %d",
				tc.name, st.Runs, st.Errors, st.Ganged, st.GangBatches, tc.runs, tc.errs, tc.ganged, tc.gbs)
		}
		if st.StoreHits != uint64(tc.stored) {
			t.Errorf("%s: %d store hits, want %d", tc.name, st.StoreHits, tc.stored)
		}
		for i, c := range tc.cfgs {
			if _, err := r.Run(ctx, c); (err != nil) != fails(c) {
				t.Errorf("%s: config %d: err = %v, want failure %v", tc.name, i, err, fails(c))
			}
		}
	}
}

// runEach submits each config through Run.
func runEach(r *Runner, cfgs []sim.Config) {
	for _, c := range cfgs {
		r.Run(context.Background(), c)
	}
}

// enqueue submits the configs as one Enqueue batch and waits for it.
func enqueue(r *Runner, cfgs []sim.Config) {
	_, wait := r.Enqueue(context.Background(), Jobs(cfgs))
	wait()
}
