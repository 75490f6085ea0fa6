package sim

import (
	"reflect"
	"sync"
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/workload"
)

// checkBound fails unless the memo's table and LRU list agree and stay
// within the limit.
func checkBound(t *testing.T, s *Streams) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.recs) > s.limit || s.lru.Len() != len(s.recs) {
		t.Errorf("memo holds %d recordings (%d in LRU), limit %d", len(s.recs), s.lru.Len(), s.limit)
	}
}

// TestStreamsSingleFlight: once a stream has been seen, concurrent
// requests for it share one recording pass and one *Recording.
func TestStreamsSingleFlight(t *testing.T) {
	s := NewStreams(2)
	prof := workload.MustGet("vpr")
	if rec := s.recording(prof, 20_000); rec != nil {
		t.Fatal("the first request for a stream was recorded")
	}
	const callers = 16
	got := make([]*workload.Recording, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.recording(prof, 20_000)
		}()
	}
	wg.Wait()
	for i, rec := range got {
		if rec == nil || rec != got[0] {
			t.Fatalf("caller %d got %p, caller 0 %p: the stream was not recorded exactly once", i, rec, got[0])
		}
	}
	if got[0].Len() != 20_000 {
		t.Fatalf("recording holds %d events, want 20000", got[0].Len())
	}
	checkBound(t, s)
}

// TestStreamsBounded: many goroutines cycling through more streams than
// the limit never make the memo hold more than the limit, and every
// caller handed a recording receives the stream it asked for.
func TestStreamsBounded(t *testing.T) {
	s := NewStreams(2)
	names := []string{"gcc", "vpr", "su2cor", "m88ksim"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				name := names[(g+i)%len(names)]
				n := uint64(1_000 + 500*(i%2))
				rec := s.recording(workload.MustGet(name), n)
				if rec != nil && rec.Len() != int(n) {
					t.Errorf("%s/%d: recording holds %d events", name, n, rec.Len())
				}
				checkBound(t, s)
			}
		}()
	}
	wg.Wait()
}

// TestStreamsRecordOnlyRepeats: a stream's first request runs live and
// its second replays a recording; a budget above the cap runs live on
// every request, stays out of the memo, and still matches sim.Run.
func TestStreamsRecordOnlyRepeats(t *testing.T) {
	s := NewStreams(2)
	prof := workload.MustGet("gcc")
	if _, ok := s.source(prof, 10_000).(*workload.Generator); !ok {
		t.Error("first request: not a live generator")
	}
	if _, ok := s.source(prof, 10_000).(*workload.Cursor); !ok {
		t.Error("second request: not a replay")
	}

	cfg := Default("gcc")
	cfg.Instructions = maxRecordedInstructions + 1
	for rep := 0; rep < 2; rep++ {
		if _, ok := s.source(prof, cfg.Instructions).(*workload.Generator); !ok {
			t.Fatalf("over-cap request %d: not a live generator", rep)
		}
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		diffResult(t, "over-cap", want, got)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[streamKey{prof, cfg.Instructions}]; ok {
		t.Error("the memo tracks an over-cap stream")
	}
}

// TestStreamsRunMatchesLiveGenerator: solo runs and gangs over a memo
// return Results bit-identical to live generation, both on a stream's
// first request (live) and on its repeats (replays of the recording).
func TestStreamsRunMatchesLiveGenerator(t *testing.T) {
	s := NewStreams(1)
	for name, cfg := range goldenConfigs() {
		cfg.Instructions = 30_000
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			got, _, err := s.Run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				diffResult(t, name, want, got)
			}
		}
		gang := gangSiblings(cfg)
		wantGang, err := RunGang(gang)
		if err != nil {
			t.Fatal(err)
		}
		gotGang, _, err := s.RunGang(gang, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotGang, wantGang) {
			t.Errorf("%s: gang over recorded streams diverged from live generation", name)
		}
	}
}

// TestBackToBackRunsBitIdentical: a second run of a dynamic-policy
// config builds its caches on the first run's recycled frame arrays and
// must still reproduce the first run exactly.
func TestBackToBackRunsBitIdentical(t *testing.T) {
	cfg := Default("su2cor")
	cfg.Instructions = 60_000
	cfg.DCache.Org = core.SelectiveWays
	cfg.DCache.Policy = PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 400, SizeBoundBytes: 4 << 10}
	cfg.Levels[0].Org = core.SelectiveSets
	cfg.Levels[0].Policy = PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 400}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.DCache.Resizes == 0 {
		t.Fatal("the dynamic d-cache never resized; the test needs resizing to dirty the arrays")
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		diffResult(t, "back-to-back", first, second)
	}
}
