package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resizecache/internal/sim"
)

// cfgN returns a distinct config per index (instruction count varies).
func cfgN(i int) sim.Config {
	c := sim.Default("gcc")
	c.Instructions = uint64(1000 + i)
	return c
}

// each adapts a one-config stub to the runner's gang hook: it runs the
// gang's configs one at a time and fails the gang on the first error.
func each(run func(sim.Config) (sim.Result, error)) func(sim.Gang) error {
	return stub(func(cfgs []sim.Config) ([]sim.Result, error) {
		out := make([]sim.Result, len(cfgs))
		for i, cfg := range cfgs {
			res, err := run(cfg)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	})
}

// stub adapts a stub over a gang's configs, in order, to the gang entry
// point: it writes the Results the stub returns to the gang's Out, and
// nothing when the stub fails.
func stub(run func([]sim.Config) ([]sim.Result, error)) func(sim.Gang) error {
	return func(g sim.Gang) error {
		cfgs := make([]sim.Config, len(g.Cfgs))
		for i, cfg := range g.Cfgs {
			cfgs[i] = *cfg
		}
		out, err := run(cfgs)
		if err != nil {
			return err
		}
		for i := range out {
			*g.Out[i] = out[i]
		}
		return nil
	}
}

// stubResult returns a recognizable result for a config.
func stubResult(cfg sim.Config) sim.Result {
	var r sim.Result
	r.CPU.Instructions = cfg.Instructions
	r.CPU.Cycles = 2 * cfg.Instructions
	return r
}

func TestRunMemoizes(t *testing.T) {
	var calls atomic.Int32
	r := New(Options{Workers: 2, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	ctx := context.Background()
	first, err := r.Run(ctx, cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(ctx, cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	if first.CPU != second.CPU || first.EDP != second.EDP {
		t.Error("memoized result differs from original")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("simulated %d times, want 1", got)
	}
	st := r.Stats()
	if st.Submitted != 2 || st.Runs != 1 || st.MemoHits != 1 {
		t.Errorf("stats = %+v, want 2 submitted / 1 run / 1 memo hit", st)
	}
}

func TestRunAllDeterministicOrderAndBaselineDedup(t *testing.T) {
	var calls atomic.Int32
	r := New(Options{Workers: 4, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	// A sweep-shaped batch: baseline duplicated at both ends plus three
	// distinct candidates.
	cfgs := []sim.Config{cfgN(0), cfgN(1), cfgN(2), cfgN(3), cfgN(0)}
	res, err := r.RunAll(context.Background(), Jobs(cfgs))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range cfgs {
		if res[i].CPU.Instructions != want.Instructions {
			t.Errorf("result %d out of order: got %d instructions, want %d",
				i, res[i].CPU.Instructions, want.Instructions)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("simulated %d distinct configs, want 4", got)
	}
	// RunAll enqueues the four distinct configs, then gathers all five
	// submissions by joining that work: every gather is a hit.
	if hits := r.Stats().Hits(); hits != uint64(len(cfgs)) {
		t.Errorf("hits = %d, want %d (each gather joins enqueued work)", hits, len(cfgs))
	}
}

func TestConcurrentIdenticalSubmissionsDeduplicate(t *testing.T) {
	const waiters = 8
	release := make(chan struct{})
	var calls atomic.Int32
	r := New(Options{Workers: waiters, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		<-release
		return stubResult(cfg), nil
	})})
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Run(context.Background(), cfgN(0))
		}(i)
	}
	// Wait until every submission has either started the simulation or
	// joined it, then release the single in-flight run.
	deadline := time.After(5 * time.Second)
	for {
		st := r.Stats()
		if st.Submitted == waiters && st.InFlightDedups == waiters-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("dedup never converged: %+v", r.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("simulated %d times, want 1", got)
	}
}

func TestRunErrorsAreMemoized(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	r := New(Options{Workers: 1, RunGang: each(func(sim.Config) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{}, boom
	})})
	for i := 0; i < 2; i++ {
		if _, err := r.Run(context.Background(), cfgN(0)); !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("failing config simulated %d times, want 1", calls.Load())
	}
	if r.Stats().Errors != 1 {
		t.Errorf("errors = %d, want 1", r.Stats().Errors)
	}
}

func TestContextCancellationMidSweep(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	r := New(Options{Workers: 1, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		started <- struct{}{}
		<-release
		return stubResult(cfg), nil
	})})
	ctx, cancel := context.WithCancel(context.Background())
	var cfgs []sim.Config
	for i := 0; i < 16; i++ {
		cfgs = append(cfgs, cfgN(i))
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.RunAll(ctx, Jobs(cfgs))
		done <- err
	}()
	<-started // first simulation occupies the single worker
	cancel()  // the other 15 are queued; cancellation must stop them
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunAll did not return after cancellation")
	}
	if runs := r.Stats().Runs; runs >= uint64(len(cfgs)) {
		t.Errorf("cancellation did not prevent queued runs: %d runs", runs)
	}
}

func TestCancelledEntryRetriesOnLiveContext(t *testing.T) {
	var calls atomic.Int32
	r := New(Options{Workers: 1, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(cancelled, cfgN(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A cancellation outcome must not poison the fingerprint.
	res, err := r.Run(context.Background(), cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(0).Instructions {
		t.Error("retry returned wrong result")
	}
	if calls.Load() != 1 {
		t.Errorf("retry simulated %d times, want 1", calls.Load())
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	var calls atomic.Int32
	runSim := func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	}

	store, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := New(Options{Workers: 2, Store: store, RunGang: each(runSim)})
	if _, err := r1.RunAll(context.Background(), Jobs([]sim.Config{cfgN(0), cfgN(1)})); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d results, want 2", store.Len())
	}

	// A fresh process (fresh store + runner) must resolve from disk.
	store2, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Len() != 2 {
		t.Fatalf("reloaded store holds %d results, want 2", store2.Len())
	}
	r2 := New(Options{Workers: 2, Store: store2, RunGang: each(func(sim.Config) (sim.Result, error) {
		t.Error("store-resident config was re-simulated")
		return sim.Result{}, fmt.Errorf("unexpected simulation")
	})})
	res, err := r2.Run(context.Background(), cfgN(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(1).Instructions {
		t.Error("disk store returned wrong result")
	}
	if st := r2.Stats(); st.StoreHits != 1 {
		t.Errorf("store hits = %d, want 1", st.StoreHits)
	}
}

func TestDiskStoreFlushIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	store, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil { // nothing dirty: no file needed
		t.Fatal(err)
	}
	store.Record(sim.Default("gcc").Key(), StoredResult{})
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestStoredErrorReplayedWithoutSimulating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	boom := errors.New("boom")
	store, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := New(Options{Workers: 1, Store: store, RunGang: each(func(sim.Config) (sim.Result, error) {
		return sim.Result{}, boom
	})})
	if _, err := r1.Run(context.Background(), cfgN(0)); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	// A fresh process must replay the persisted failure, not re-run it.
	store2, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	r2 := New(Options{Workers: 1, Store: store2, RunGang: each(func(sim.Config) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{}, nil
	})})
	_, err = r2.Run(context.Background(), cfgN(0))
	var se *StoredError
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "boom") {
		t.Fatalf("want replayed StoredError(boom), got %v", err)
	}
	if calls.Load() != 0 {
		t.Errorf("stored failure re-simulated %d times", calls.Load())
	}
	if st := r2.Stats(); st.StoreHits != 1 || st.Runs != 0 || st.Errors != 1 {
		t.Errorf("stats = %+v, want 1 store hit / 0 runs / 1 error", st)
	}
}

func TestCancellationsAreNeverPersisted(t *testing.T) {
	store := NewMemStore()
	r := New(Options{Workers: 1, Store: store, RunGang: each(func(sim.Config) (sim.Result, error) {
		return sim.Result{}, context.Canceled
	})})
	if _, err := r.Run(context.Background(), cfgN(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, ok := store.Lookup(cfgN(0).Key()); ok {
		t.Error("cancellation outcome was persisted")
	}
	// The fingerprint stays retryable, and the retry's success persists.
	var calls atomic.Int32
	r2 := New(Options{Workers: 1, Store: store, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	if _, err := r2.Run(context.Background(), cfgN(0)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("retry simulated %d times, want 1", calls.Load())
	}
	if _, ok := store.Lookup(cfgN(0).Key()); !ok {
		t.Error("successful retry was not persisted")
	}
}

func TestDiskStoreCorruptAndVersionMismatch(t *testing.T) {
	dir := t.TempDir()

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(corrupt); err == nil {
		t.Error("corrupted store file accepted")
	}

	// A version-mismatched file loads as empty and is overwritten whole
	// on the next flush, never partially merged.
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"version":1,"results":{"deadbeef":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(old)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("version-mismatched store loaded %d results", s.Len())
	}
	s.Record(cfgN(0).Key(), StoredResult{Result: stubResult(cfgN(0))})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDiskStore(old)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("rewritten store holds %d results, want 1", s2.Len())
	}
	if _, ok := s2.Lookup(cfgN(0).Key()); !ok {
		t.Error("rewritten store lost the fresh result")
	}
}

// TestDiskStoreFileIsTheMarshalledDocument pins the streamed file
// format: Flush writes exactly the bytes json.Marshal gives the store's
// document, and a load reads back every entry of that document.
func TestDiskStoreFileIsTheMarshalledDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		s.Record(cfgN(i).Key(), StoredResult{Result: stubResult(cfgN(i))})
	}
	s.Record(cfgN(5).Key(), StoredResult{Err: "boom <&>"})
	s.RecordArtifact(cfgN(6).Key(), []byte(`{ "spaced" : [1, 2] }`))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(diskFile{Version: storeVersion, Results: s.results, Artifacts: s.artifacts})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flushed file differs from the marshalled document:\n got %s\nwant %s", got, want)
	}

	re, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var f diskFile
	if err := json.Unmarshal(got, &f); err != nil {
		t.Fatal(err)
	}
	reloaded, err := json.Marshal(diskFile{Version: storeVersion, Results: re.results, Artifacts: re.artifacts})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reloaded, want) {
		t.Errorf("reloaded store differs from the file:\n got %s\nwant %s", reloaded, want)
	}
	if len(re.results) != len(f.Results) || len(re.artifacts) != len(f.Artifacts) {
		t.Errorf("reloaded %d results and %d artifacts, the file holds %d and %d",
			len(re.results), len(re.artifacts), len(f.Results), len(f.Artifacts))
	}

	// Unknown fields and any member order load; anything but an object
	// where the document or a section belongs, and trailing data, fail.
	for _, c := range []struct {
		doc string
		ok  bool
		n   int
	}{
		{`{"version":2,"results":{"k":{"err":"x"}},"extra":[1,{"a":2}]}`, true, 1},
		{`{"results":{"k":{"err":"x"}},"version":2}`, true, 1},
		{`{"version":1,"results":{"k":{"err":"x"}}}`, true, 0},
		{`{"version":2,"results":{}} x`, false, 0},
		{`{"version":2,"results":{}}{}`, false, 0},
		{`[]`, false, 0},
		{`null`, false, 0},
		{`{"version":2,"results":[]}`, false, 0},
		{`{"version":2,"results":{"k":{"err":"x"}}`, false, 0},
	} {
		p := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(p, []byte(c.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenDiskStore(p)
		if (err == nil) != c.ok {
			t.Errorf("%s: OpenDiskStore error %v, want ok=%v", c.doc, err, c.ok)
			continue
		}
		if c.ok && s.Len() != c.n {
			t.Errorf("%s: loaded %d results, want %d", c.doc, s.Len(), c.n)
		}
	}
}

func TestMemStoreIsAPluggableBackend(t *testing.T) {
	store := NewMemStore()
	var calls atomic.Int32
	runSim := func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	}
	r1 := New(Options{Workers: 1, Store: store, RunGang: each(runSim)})
	if _, err := r1.Run(context.Background(), cfgN(0)); err != nil {
		t.Fatal(err)
	}
	// A second runner sharing the backend resolves without simulating.
	r2 := New(Options{Workers: 1, Store: store, RunGang: each(runSim)})
	res, err := r2.Run(context.Background(), cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(0).Instructions {
		t.Error("backend returned wrong result")
	}
	if calls.Load() != 1 {
		t.Errorf("simulated %d times across runners, want 1", calls.Load())
	}
	if st := r2.Stats(); st.StoreHits != 1 {
		t.Errorf("store hits = %d, want 1", st.StoreHits)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	var calls atomic.Int32
	r := New(Options{Workers: 1, MemoLimit: 2, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	ctx := context.Background()
	for i := 0; i < 3; i++ { // fills the table, evicting cfg 0
		if _, err := r.Run(ctx, cfgN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("cold runs = %d, want 3", calls.Load())
	}
	if _, err := r.Run(ctx, cfgN(2)); err != nil { // memo hit; refreshes recency
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Error("resident entry re-simulated")
	}
	if _, err := r.Run(ctx, cfgN(0)); err != nil { // evicted: must re-simulate
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("evicted entry not re-simulated (calls = %d)", calls.Load())
	}
	// cfg 2 was touched after cfg 1, so re-admitting cfg 0 evicted cfg 1
	// — cfg 2 must still be resident (i.e. recency, not insertion order).
	if _, err := r.Run(ctx, cfgN(2)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("recently used entry was evicted (calls = %d)", calls.Load())
	}
	if st := r.Stats(); st.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", st.Evictions)
	}
}

// TestEnqueueLeavesMemoRecencyAlone: Enqueue skips a memoized config
// without counting it as used, so the LRU bound still evicts it first.
func TestEnqueueLeavesMemoRecencyAlone(t *testing.T) {
	var calls atomic.Int32
	r := New(Options{Workers: 1, MemoLimit: 2, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	ctx := context.Background()
	for i := range 2 {
		if _, err := r.Run(ctx, cfgN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := r.Enqueue(ctx, Jobs([]sim.Config{cfgN(0)})); n != 0 {
		t.Fatalf("enqueued %d memoized configs, want 0", n)
	}
	for _, i := range []int{2, 1} { // admitting cfg 2 evicts cfg 0, the least recently used
		if _, err := r.Run(ctx, cfgN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Errorf("simulated %d times, want 3: Enqueue refreshed cfg 0's recency", calls.Load())
	}
}

// decodeTo returns an Artifact decode that accepts any payload and
// copies it into *out.
func decodeTo(out *string) func([]byte) error {
	return func(data []byte) error {
		*out = string(data)
		return nil
	}
}

func TestArtifactMemoizesAndPersists(t *testing.T) {
	store := NewMemStore()
	r := New(Options{Workers: 1, Store: store})
	key := sim.NewKeyBuilder("runner-test").Str("artifact").Sum()
	var computes atomic.Int32
	compute := func(context.Context) ([]byte, error) {
		computes.Add(1)
		return []byte(`{"v":1}`), nil
	}
	ctx := context.Background()
	var a, b, c string
	if err := r.Artifact(ctx, key, decodeTo(&a), compute); err != nil {
		t.Fatal(err)
	}
	if err := r.Artifact(ctx, key, decodeTo(&b), compute); err != nil {
		t.Fatal(err)
	}
	if string(a) != `{"v":1}` || string(b) != string(a) {
		t.Errorf("artifact payloads differ: %q vs %q", a, b)
	}
	if computes.Load() != 1 {
		t.Errorf("computed %d times, want 1", computes.Load())
	}
	if st := r.Stats(); st.ArtifactHits != 1 || st.ArtifactComputes != 1 {
		t.Errorf("stats = %+v, want 1 artifact hit / 1 compute", st)
	}

	// A fresh runner sharing the store resolves from the persistent tier.
	r2 := New(Options{Workers: 1, Store: store})
	if err := r2.Artifact(ctx, key, decodeTo(&c), compute); err != nil {
		t.Fatal(err)
	}
	if string(c) != string(a) {
		t.Error("persistent tier returned wrong payload")
	}
	if computes.Load() != 1 {
		t.Error("persistent tier miss recomputed the artifact")
	}
	if st := r2.Stats(); st.ArtifactStoreHits != 1 {
		t.Errorf("artifact store hits = %d, want 1", st.ArtifactStoreHits)
	}
}

// TestArtifactHitsShareThePayload pins Artifact's read-only contract:
// a hit hands out the cached payload itself, the slice compute returned
// and every later hit alike, without copying it.
func TestArtifactHitsShareThePayload(t *testing.T) {
	r := New(Options{Workers: 1})
	key := sim.NewKeyBuilder("runner-test").Str("shared").Sum()
	computed := []byte(`{"v":1}`)
	compute := func(context.Context) ([]byte, error) { return computed, nil }
	var a, b []byte
	if err := r.Artifact(context.Background(), key, func(data []byte) error { a = data; return nil }, compute); err != nil {
		t.Fatal(err)
	}
	if err := r.Artifact(context.Background(), key, func(data []byte) error { b = data; return nil }, compute); err != nil {
		t.Fatal(err)
	}
	if &a[0] != &computed[0] || &b[0] != &computed[0] {
		t.Error("Artifact copied the cached payload; hits are read-only views of it")
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := r.Artifact(context.Background(), key, func([]byte) error { return nil }, compute); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm Artifact hit makes %v allocations, want 0", n)
	}
}

func TestArtifactErrorsAreNotMemoized(t *testing.T) {
	r := New(Options{Workers: 1})
	key := sim.NewKeyBuilder("runner-test").Str("flaky").Sum()
	boom := errors.New("boom")
	fail := true
	ctx := context.Background()
	var data string
	if err := r.Artifact(ctx, key, decodeTo(&data), func(context.Context) ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	err := r.Artifact(ctx, key, decodeTo(&data), func(context.Context) ([]byte, error) {
		fail = false
		return []byte("ok"), nil
	})
	if err != nil || string(data) != "ok" {
		t.Fatalf("failed fingerprint not retried: %q, %v", data, err)
	}
	if fail {
		t.Error("second compute never ran")
	}
}

func TestArtifactInFlightDedup(t *testing.T) {
	const waiters = 6
	r := New(Options{Workers: waiters})
	key := sim.NewKeyBuilder("runner-test").Str("concurrent").Sum()
	release := make(chan struct{})
	var computes atomic.Int32
	var wg sync.WaitGroup
	outs := make([]string, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.Artifact(context.Background(), key, decodeTo(&outs[i]), func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-release
				return []byte("shared"), nil
			})
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for computes.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no compute started")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if string(outs[i]) != "shared" {
			t.Errorf("waiter %d got %q", i, outs[i])
		}
	}
	if computes.Load() != 1 {
		t.Errorf("computed %d times, want 1", computes.Load())
	}
}

// TestRealSimulationThroughRunner exercises the default RunGang seam with
// a tiny real simulation, end to end through memoization.
func TestRealSimulationThroughRunner(t *testing.T) {
	r := New(Options{Workers: 2})
	cfg := sim.Default("m88ksim")
	cfg.Instructions = 20_000
	a, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Cycles == 0 || a.CPU.Cycles != b.CPU.Cycles {
		t.Errorf("memoized real run mismatch: %d vs %d cycles", a.CPU.Cycles, b.CPU.Cycles)
	}
	if st := r.Stats(); st.Runs != 1 || st.MemoHits != 1 {
		t.Errorf("stats = %+v, want 1 run / 1 memo hit", st)
	}
}

func TestEnqueueRegistersSynchronouslyAndJoins(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	r := New(Options{Workers: 8, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		<-release
		return stubResult(cfg), nil
	})})
	cfgs := []sim.Config{cfgN(0), cfgN(1), cfgN(2)}
	if n, _ := r.Enqueue(context.Background(), Jobs(cfgs)); n != 3 {
		t.Fatalf("enqueued %d configs, want 3", n)
	}
	// Entries are registered before Enqueue returns, so a batch gather of
	// the same configs joins the in-flight work: no second enqueue pass,
	// no extra simulations.
	done := make(chan error, 1)
	go func() {
		_, err := r.RunAll(context.Background(), Jobs(cfgs))
		done <- err
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if calls.Load() != 3 || st.Runs != 3 {
		t.Errorf("simulated %d/%d times, want 3", calls.Load(), st.Runs)
	}
	if st.Enqueued != 3 || st.EnqueueBatches != 1 {
		t.Errorf("enqueue stats = %+v, want 3 enqueued in 1 pass", st)
	}
	// A second Enqueue of the same batch finds everything memoized.
	if n, _ := r.Enqueue(context.Background(), Jobs(cfgs)); n != 0 {
		t.Errorf("warm Enqueue submitted %d configs, want 0", n)
	}
}

func TestEnqueueCancellationLeavesRetryable(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	r := New(Options{Workers: 1, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		started <- struct{}{}
		<-release
		return stubResult(cfg), nil
	})})
	ctx, cancel := context.WithCancel(context.Background())
	r.Enqueue(ctx, Jobs([]sim.Config{cfgN(0), cfgN(1)}))
	<-started // first owner occupies the single worker; second queues
	cancel()
	close(release)
	// The queued config completed with a cancellation and must have been
	// evicted, so a live context re-runs it.
	res, err := r.Run(context.Background(), cfgN(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(1).Instructions {
		t.Error("retry returned wrong result")
	}
}

func TestHasArtifactBothTiers(t *testing.T) {
	store := NewMemStore()
	r := New(Options{Workers: 1, Store: store})
	key := sim.NewKeyBuilder("runner-test").Str("probe").Sum()
	if r.HasArtifact(key) {
		t.Fatal("cold fingerprint reported present")
	}
	var data string
	if err := r.Artifact(context.Background(), key, decodeTo(&data), func(context.Context) ([]byte, error) {
		return []byte(`{"v":1}`), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !r.HasArtifact(key) {
		t.Error("memoized artifact reported absent")
	}
	// A fresh runner sharing the store sees the persistent tier.
	r2 := New(Options{Workers: 1, Store: store})
	if !r2.HasArtifact(key) {
		t.Error("stored artifact reported absent")
	}
	if New(Options{Workers: 1}).HasArtifact(key) {
		t.Error("storeless runner reported a foreign artifact present")
	}
}

// lookupCountingStore counts artifact lookups reaching the backend.
type lookupCountingStore struct {
	Store
	artifactLookups atomic.Int64
}

func (s *lookupCountingStore) LookupArtifact(k sim.Key) ([]byte, bool) {
	s.artifactLookups.Add(1)
	return s.Store.LookupArtifact(k)
}

// TestHasArtifactPromotesStoreHit: a probe that finds the artifact in
// the store installs it in memory, so the gather after it does not
// fetch the payload again.
func TestHasArtifactPromotesStoreHit(t *testing.T) {
	mem := NewMemStore()
	key := sim.NewKeyBuilder("runner-test").Str("promote").Sum()
	mem.RecordArtifact(key, []byte(`{"v":2}`))
	store := &lookupCountingStore{Store: mem}
	r := New(Options{Workers: 1, Store: store})
	if !r.HasArtifact(key) {
		t.Fatal("stored artifact reported absent")
	}
	var data string
	err := r.Artifact(context.Background(), key, decodeTo(&data), func(context.Context) ([]byte, error) {
		t.Error("promoted artifact recomputed")
		return nil, nil
	})
	if err != nil || string(data) != `{"v":2}` {
		t.Fatalf("Artifact = %q, %v", data, err)
	}
	if n := store.artifactLookups.Load(); n != 1 {
		t.Errorf("store saw %d artifact lookups, want 1", n)
	}
	if st := r.Stats(); st.ArtifactStoreHits != 1 || st.ArtifactComputes != 0 {
		t.Errorf("stats = %+v, want 1 artifact store hit and no computes", st)
	}
}

// TestArtifactRejectedPayloadIsAMiss: a cached payload that decode
// rejects, whether promoted into memory or found in the store, is a
// miss that recomputes once and is replaced in both tiers; a computed
// payload that decode rejects is an error and is kept in neither.
func TestArtifactRejectedPayloadIsAMiss(t *testing.T) {
	mem := NewMemStore()
	key := sim.NewKeyBuilder("runner-test").Str("rejected").Sum()
	mem.RecordArtifact(key, []byte(`"stale"`))
	r := New(Options{Workers: 1, Store: mem})
	if !r.HasArtifact(key) { // promotes the stale payload into memory
		t.Fatal("stored artifact reported absent")
	}
	errStale := errors.New("stale payload")
	decode := func(data []byte) error {
		if string(data) != `{"v":3}` {
			return errStale
		}
		return nil
	}
	var computes int
	compute := func(context.Context) ([]byte, error) {
		computes++
		return []byte(`{"v":3}`), nil
	}
	ctx := context.Background()
	for range 2 {
		if err := r.Artifact(ctx, key, decode, compute); err != nil {
			t.Fatal(err)
		}
	}
	if computes != 1 {
		t.Errorf("computed %d times, want 1", computes)
	}
	if data, _ := mem.LookupArtifact(key); string(data) != `{"v":3}` {
		t.Errorf("store holds %q after the recompute", data)
	}
	if st := r.Stats(); st.ArtifactComputes != 1 || st.ArtifactHits != 1 || st.ArtifactStoreHits != 0 {
		t.Errorf("stats = %+v, want 1 compute, 1 hit and no store hits", st)
	}

	bad := sim.NewKeyBuilder("runner-test").Str("rejected-fresh").Sum()
	if err := r.Artifact(ctx, bad, decode, func(context.Context) ([]byte, error) {
		return []byte(`"bad"`), nil
	}); !errors.Is(err, errStale) {
		t.Fatalf("a computed payload decode rejects: err = %v, want the decode error", err)
	}
	if _, ok := mem.LookupArtifact(bad); ok || r.HasArtifact(bad) {
		t.Error("a computed payload decode rejects was kept")
	}
}

func TestStatsDelta(t *testing.T) {
	a := Stats{Submitted: 10, Runs: 4, MemoHits: 6, Enqueued: 3, ArtifactComputes: 1}
	b := Stats{Submitted: 25, Runs: 5, MemoHits: 20, Enqueued: 3, ArtifactComputes: 1, ArtifactHits: 7}
	d := b.Delta(a)
	want := Stats{Submitted: 15, Runs: 1, MemoHits: 14, ArtifactHits: 7}
	if d != want {
		t.Errorf("Delta = %+v, want %+v", d, want)
	}
}

func TestEnqueueWaitDrainsStragglersBeforeFlush(t *testing.T) {
	store := NewMemStore()
	started := make(chan sim.Config, 2)
	release := make(chan struct{})
	r := New(Options{Workers: 1, Store: store, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		started <- cfg
		<-release
		return stubResult(cfg), nil
	})})
	ctx, cancel := context.WithCancel(context.Background())
	n, wait := r.Enqueue(ctx, Jobs([]sim.Config{cfgN(0), cfgN(1)}))
	if n != 2 {
		t.Fatalf("enqueued %d, want 2", n)
	}
	running := <-started // one config owns the single worker slot
	cancel()             // the queued one aborts; the running one is a straggler
	close(release)
	wait() // must not return until the straggler has published
	if _, ok := store.Lookup(running.Key()); !ok {
		t.Error("straggler's result was not persisted before wait returned")
	}
}

// TestStaleKeyEncodingInvalidatesCleanly models the sim.Key version
// bump (v1 -> v2): a store populated under a retired key encoding still
// loads, but its entries can only miss — the runner re-simulates under
// the current keys and persists alongside the stale entries, never
// serving a result the old key no longer describes.
func TestStaleKeyEncodingInvalidatesCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	store, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// A v1-era fingerprint of cfgN(0): same config, retired encoding.
	// Any key the current encoder cannot produce stands in for it.
	var stale sim.Key
	copy(stale[:], []byte("v1-key-of-cfgN0-retired-encoding"))
	wrong := stubResult(cfgN(1)) // result the stale key maps to
	store.Record(stale, StoredResult{Result: wrong})
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Len() != 1 {
		t.Fatalf("stale store failed to load: %d results", store2.Len())
	}
	var calls atomic.Int32
	r := New(Options{Workers: 1, Store: store2, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	res, err := r.Run(context.Background(), cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(0).Instructions {
		t.Fatalf("got result for the wrong config: %+v", res.CPU)
	}
	if calls.Load() != 1 {
		t.Fatalf("stale store served a hit: %d simulations", calls.Load())
	}
	if st := r.Stats(); st.StoreHits != 0 {
		t.Fatalf("stale entry counted as a store hit: %+v", st)
	}
	// The fresh result persists under the new key; the stale entry stays
	// (unreachable) rather than corrupting the store.
	if err := store2.Flush(); err != nil {
		t.Fatal(err)
	}
	store3, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if store3.Len() != 2 {
		t.Fatalf("store holds %d results after re-run, want 2", store3.Len())
	}
	if _, ok := store3.Lookup(cfgN(0).Key()); !ok {
		t.Fatal("fresh result not persisted under the current key")
	}
}

// TestResolveNeverRunsOrWaits: Resolve answers a memoized or stored
// fingerprint at once and counts it as Run would; an unknown or
// in-flight one it leaves to the caller, without running or waiting.
func TestResolveNeverRunsOrWaits(t *testing.T) {
	store := NewMemStore()
	store.Record(cfgN(1).Key(), StoredResult{Result: stubResult(cfgN(1))})
	release := make(chan struct{})
	var calls atomic.Int32
	r := New(Options{Workers: 2, Store: store, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		if cfg.Instructions == cfgN(2).Instructions {
			<-release
		}
		return stubResult(cfg), nil
	})})
	ctx := context.Background()
	if _, err := r.Run(ctx, cfgN(0)); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()

	if res, err, ok := r.Resolve(cfgN(0).Key()); !ok || err != nil || res.CPU != stubResult(cfgN(0)).CPU {
		t.Errorf("memoized config: ok=%v err=%v res=%+v", ok, err, res.CPU)
	}
	if res, err, ok := r.Resolve(cfgN(1).Key()); !ok || err != nil || res.CPU != stubResult(cfgN(1)).CPU {
		t.Errorf("stored config: ok=%v err=%v res=%+v", ok, err, res.CPU)
	}
	if _, _, ok := r.Resolve(cfgN(3).Key()); ok {
		t.Error("unknown config resolved")
	}
	_, wait := r.Enqueue(ctx, Jobs([]sim.Config{cfgN(2)}))
	if _, _, ok := r.Resolve(cfgN(2).Key()); ok {
		t.Error("in-flight config resolved")
	}
	close(release)
	wait()

	d := r.Stats().Delta(before)
	if d.Submitted != 2 || d.MemoHits != 1 || d.StoreHits != 1 || calls.Load() != 2 {
		t.Errorf("Resolve counted %+v with %d simulations, want 2 submitted, 1 memo hit, 1 store hit, 2 simulations", d, calls.Load())
	}
	// The stored outcome now answers from the memo.
	if _, err := r.Run(ctx, cfgN(1)); err != nil || r.Stats().MemoHits != before.MemoHits+2 {
		t.Errorf("stored config not memoized after Resolve: %v, %+v", err, r.Stats())
	}
}

// TestResolveNeverAnswersACancellation: an owner cancelled while Resolve
// polls its key publishes a cancellation, which leaves the table and
// applies to no other caller. Resolve must report such a key unknown or
// in flight, never answer the cancellation as a memo hit. Each round
// cancels a batch of owners at once while several goroutines poll their
// keys, so publishes land between a poll's lookup and its answer.
func TestResolveNeverAnswersACancellation(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	r := New(Options{Workers: 1, RunGang: each(func(cfg sim.Config) (sim.Result, error) {
		close(started)
		<-release
		return stubResult(cfg), nil
	})})
	// cfgN(0) holds the only worker slot, so each owner below waits for
	// it until its ctx is cancelled.
	_, wait := r.Enqueue(context.Background(), Jobs([]sim.Config{cfgN(0)}))
	defer wait()
	defer close(release)
	<-started

	const rounds, owners, pollers = 400, 32, 4
	for round := range rounds {
		cfgs := make([]sim.Config, owners)
		for k := range cfgs {
			cfgs[k] = cfgN(1 + round*owners + k)
		}
		jobs := Jobs(cfgs)
		ctx, cancel := context.WithCancel(context.Background())
		var ran sync.WaitGroup
		for _, j := range jobs {
			ran.Add(1)
			go func() {
				defer ran.Done()
				r.Run(ctx, *j.Cfg)
			}()
		}
		done := make(chan struct{})
		answered := make(chan error, pollers)
		var polled sync.WaitGroup
		for range pollers {
			polled.Add(1)
			go func() {
				defer polled.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					for _, j := range jobs {
						if _, err, ok := r.Resolve(j.Key); ok {
							answered <- err
							return
						}
					}
				}
			}()
		}
		cancel()
		ran.Wait()
		close(done)
		polled.Wait()
		close(answered)
		if err, ok := <-answered; ok {
			t.Fatalf("round %d: Resolve answered a cancelled key: err = %v", round, err)
		}
	}
	if st := r.Stats(); st.MemoHits != 0 {
		t.Errorf("stats = %+v, want no memo hits", st)
	}
}
