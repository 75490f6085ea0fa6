package sim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/workload"
)

// checkBound fails unless the memo's table and LRU list agree and the
// recordings it charges for fit its byte bound of limit × 4 MiB.
func checkBound(t *testing.T, s *Streams, limit int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var charged int64
	for _, e := range s.recs {
		charged += e.charge
	}
	if bound := int64(limit) << 22; charged != s.bytes || s.bytes > bound || s.lru.Len() != len(s.recs) {
		t.Errorf("memo charges %d B (counted %d B) for %d recordings (%d in LRU), bound %d B",
			charged, s.bytes, len(s.recs), s.lru.Len(), bound)
	}
}

// TestStreamsSingleFlight: once a stream has been seen, concurrent
// requests for it share one recording pass and one *Recording.
func TestStreamsSingleFlight(t *testing.T) {
	s := NewStreams(2)
	prof := workload.MustGet("vpr")
	if rec := s.recording(prof, 20_000, SamplingSpec{}); rec != nil {
		t.Fatal("the first request for a stream was recorded")
	}
	const callers = 16
	got := make([]*recording, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.recording(prof, 20_000, SamplingSpec{})
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
	if n := s.recorded.Load(); n != 1 {
		t.Fatalf("%d recording passes, want 1", n)
	}
	checkBound(t, s, 2)
}

// TestStreamsBounded: many goroutines cycling through more streams than
// fit never make the memo hold more than its byte bound of limit ×
// 4 MiB, and every caller handed a recording receives the stream it
// asked for. Each 250K-instruction stream charges ~3.8 MiB, so a
// limit-2 memo holds two of the four.
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
				n := uint64(250_000 - 500*(i%2))
				rec := s.recording(workload.MustGet(name), n, SamplingSpec{})
				if rec != nil && rec.Len() != int(n) {
					t.Errorf("%s/%d: recording holds %d events", name, n, rec.Len())
				}
				checkBound(t, s, 2)
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
	if _, ok := s.stream(prof, 10_000, SamplingSpec{}).src.(*workload.Generator); !ok {
		t.Error("first request: not a live generator")
	}
	if _, ok := s.stream(prof, 10_000, SamplingSpec{}).src.(*workload.Cursor); !ok {
		t.Error("second request: not a replay")
	}

	cfg := Default("gcc")
	cfg.Instructions = maxRecordedInstructions + 1
	for rep := 0; rep < 2; rep++ {
		if _, ok := s.stream(prof, cfg.Instructions, SamplingSpec{}).src.(*workload.Generator); !ok {
			t.Fatalf("over-cap request %d: not a live generator", rep)
		}
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.RunGang([]Config{cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		diffResult(t, "over-cap", want, got[0])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[streamKey{prof: prof, n: cfg.Instructions}]; ok {
		t.Error("the memo tracks an over-cap stream")
	}
}

// TestStreamsPlanAnyBudget: the dry pass that sizes a recording
// counts sampled and detailed streams exactly, and stays short and
// refuses to record however large the budget.
func TestStreamsPlanAnyBudget(t *testing.T) {
	prof := workload.MustGet("gcc")
	for _, tc := range []struct {
		n     uint64
		spec  SamplingSpec
		shape streamShape
	}{
		{40_000, SamplingSpec{}, streamShape{40_000, 0}},
		{250_000, DefaultSampling(), streamShape{70_000, 4}},
	} {
		if sh := planStream(prof, tc.n, tc.spec); sh != tc.shape {
			t.Errorf("%d/%+v: planned %+v, want %+v", tc.n, tc.spec, sh, tc.shape)
		}
	}
	// Only the skipping schedule consumes few enough events of a budget
	// just over the cap to be recorded.
	for _, spec := range []SamplingSpec{{}, DefaultSampling(), {DetailedInstructions: 1, FastForwardInstructions: 1}} {
		for _, n := range []uint64{maxRecordedInstructions + 1, 50_000_000, math.MaxUint64} {
			wantKept := spec == DefaultSampling() && n == maxRecordedInstructions+1
			if b := planStream(prof, n, spec).bytes(); (b <= maxRecordingBytes) != wantKept {
				t.Errorf("%d/%+v: planned %d B, want kept=%v", n, spec, b, wantKept)
			}
		}
	}
}

// TestStreamsRunMatchesLiveGenerator: gangs of one and of three over a memo
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
			got, _, err := s.RunGang([]Config{cfg}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[0], want) {
				diffResult(t, name, want, got[0])
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

// warmReplay runs gang through s twice — a memo records a stream on its
// second request — and returns the second run, failing unless that run
// replayed a recording.
func warmReplay(t *testing.T, s *Streams, gang []Config, prof *workload.Profile, cs CheckpointStore) ([]Result, WarmupStats) {
	t.Helper()
	if _, _, err := runGangOver(gang, prof, nil, s, nil); err != nil {
		t.Fatal(err)
	}
	before := s.replays.Load()
	got, ws, err := runGangOver(gang, prof, cs, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.replays.Load() == before {
		t.Fatal("the memo served no recording")
	}
	checkSized(t, s)
	return got, ws
}

// checkSized fails unless every recording the memo holds was allocated
// once, at the size its dry pass planned and the memo charges.
func checkSized(t *testing.T, s *Streams) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.recs {
		if e.rec != nil && (uint64(e.rec.Len()) != e.shape.events || e.rec.Bytes() != e.charge) {
			t.Errorf("%s/%d: recording holds %d events in %d B, planned %d events in %d B",
				k.prof.Name, k.n, e.rec.Len(), e.rec.Bytes(), e.shape.events, e.charge)
		}
	}
}

// TestStreamsSampledReplayMatchesLive: a sampled gang replaying a warm
// memo returns exactly its live-generator Results, for each sampled
// golden config.
func TestStreamsSampledReplayMatchesLive(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		if !cfg.Sampling.Enabled() {
			continue
		}
		gang := gangSiblings(cfg)
		want, err := RunGang(gang)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := warmReplay(t, NewStreams(1), gang, workload.MustGet(cfg.Benchmark), nil)
		for i := range gang {
			if !reflect.DeepEqual(got[i], want[i]) {
				diffResult(t, fmt.Sprintf("%s replay member %d", name, i), want[i], got[i])
			}
		}
	}
}

// TestStreamsSampledReplayChunked: a sampled gang larger than the chunk
// size replays one recording per chunk and still matches its live run.
func TestStreamsSampledReplayChunked(t *testing.T) {
	base := Default("vpr")
	base.Instructions = 60_000
	base.Sampling = fidelitySpec()
	base.Sampling.WarmupInstructions = 5_000
	var gang []Config
	for len(gang) <= gangChunk {
		for _, kb := range []int{8, 16, 32, 64} {
			c := base
			c.DCache.Geom.SizeBytes = kb << 10
			c.DCache.Geom.Assoc = 1 << (len(gang) / 4 % 4)
			gang = append(gang, c)
		}
	}
	want, _, err := RunGangWithCheckpoints(gang, newMapStore())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := warmReplay(t, NewStreams(1), gang, workload.MustGet("vpr"), newMapStore())
	for i := range gang {
		if !reflect.DeepEqual(got[i], want[i]) {
			diffResult(t, fmt.Sprintf("chunked replay member %d", i), want[i], got[i])
		}
	}
}

// TestStreamsSampledReplayRunsDry: on a non-periodic profile whose
// stream runs dry inside a skip, or inside a fast-forward, the replay
// stops where the generator did — with or without a warmup checkpoint —
// and matches the live run.
func TestStreamsSampledReplayRunsDry(t *testing.T) {
	cfg := Default("gcc")
	cfg.Instructions = 100_000
	cfg.Sampling = SamplingSpec{WarmupInstructions: 1_000, DetailedInstructions: 2_000,
		FastForwardInstructions: 3_000, SkipInstructions: 5_000}
	gang := gangSiblings(cfg)
	// The schedule reaches 13K after the second window: a 15K stream
	// runs dry in the skip to 18K, a 19K one in the fast-forward to 21K.
	for name, total := range map[string]uint64{"skip": 15_000, "fast-forward": 19_000} {
		prof := &workload.Profile{
			Name: "oneshot-" + name, LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.15, FloatFrac: 0.1,
			DepMeanDist: 3, BranchRandFrac: 0.3,
			Phases: []workload.Phase{
				{Instructions: 8_000,
					DLevels: []workload.WSLevel{{Blocks: 64, Frac: 0.9}, {Blocks: 4096, Frac: 0.1}},
					ILevels: []workload.WSLevel{{Blocks: 32, Frac: 1}}},
				{Instructions: total - 8_000,
					DLevels: []workload.WSLevel{{Blocks: 256, Frac: 1}},
					ILevels: []workload.WSLevel{{Blocks: 64, Frac: 1}}},
			},
		}
		want, _, err := runGangOver(gang, prof, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep := want[0].Sample; rep == nil || rep.TotalInstructions != total {
			t.Fatalf("%s: live run covered %+v, want the whole %d-instruction stream", name, rep, total)
		}
		s := NewStreams(1)
		for _, cs := range []CheckpointStore{nil, newMapStore()} {
			got, _ := warmReplay(t, s, gang, prof, cs)
			// A second replay restores the checkpoint the first saved.
			again, ws, err := runGangOver(gang, prof, cs, s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cs != nil && !ws.CheckpointHit {
				t.Errorf("%s: the replay did not restore its own checkpoint: %+v", name, ws)
			}
			for i := range gang {
				if !reflect.DeepEqual(got[i], want[i]) {
					diffResult(t, fmt.Sprintf("%s replay member %d", name, i), want[i], got[i])
				}
				if !reflect.DeepEqual(again[i], want[i]) {
					diffResult(t, fmt.Sprintf("%s restored replay member %d", name, i), want[i], again[i])
				}
			}
		}
	}
}

// TestStreamsByteBoundRecordsEachStreamOnce: three small streams cycled
// through a limit-2 memo all fit its byte bound, so each is recorded
// once, however often it repeats.
func TestStreamsByteBoundRecordsEachStreamOnce(t *testing.T) {
	s := NewStreams(2)
	names := []string{"gcc", "vpr", "su2cor"}
	for round := 0; round < 4; round++ {
		for _, name := range names {
			st := s.stream(workload.MustGet(name), 20_000, SamplingSpec{})
			if _, replay := st.src.(*workload.Cursor); replay != (round > 0) {
				t.Errorf("round %d %s: replay=%v", round, name, replay)
			}
		}
	}
	if n := s.recorded.Load(); n != int64(len(names)) {
		t.Errorf("%d recording passes for %d streams, want one each", n, len(names))
	}
	checkBound(t, s, 2)
	checkSized(t, s)
}

// sampledCheckpointConfig is a sampled config with a warmup prefix.
func sampledCheckpointConfig() Config {
	cfg := goldenConfigs()["gcc-ooo-base"]
	cfg.Sampling = fidelitySpec()
	cfg.Sampling.WarmupInstructions = 10_000
	return cfg
}

// TestStreamsReplayCheckpointMatchesLive: the warmup checkpoint a replay
// saves is byte-identical to the one a live run saves, and the replay
// restores a live run's checkpoint to the same Result.
func TestStreamsReplayCheckpointMatchesLive(t *testing.T) {
	cfg := sampledCheckpointConfig()
	prof := workload.MustGet(cfg.Benchmark)
	live := newMapStore()
	want, ws, err := RunGangWithCheckpoints([]Config{cfg}, live)
	if err != nil || !ws.CheckpointSaved {
		t.Fatalf("live run: err=%v stats=%+v, want a save", err, ws)
	}
	s := NewStreams(1)
	replayed := newMapStore()
	got, ws := warmReplay(t, s, []Config{cfg}, prof, replayed)
	if !ws.CheckpointSaved {
		t.Fatalf("replay with an empty store: stats %+v, want a save", ws)
	}
	if a, b := live.m[cfg.WarmKey()], replayed.m[cfg.WarmKey()]; !bytes.Equal(a, b) {
		t.Errorf("replay saved a %d-byte checkpoint, live run %d bytes; they differ", len(b), len(a))
	}
	restored, ws, err := runGangOver([]Config{cfg}, prof, live, s, nil)
	if err != nil || !ws.CheckpointHit {
		t.Fatalf("replay over the live checkpoint: err=%v stats=%+v, want a hit", err, ws)
	}
	for name, r := range map[string]Result{"saving replay": got[0], "restoring replay": restored[0]} {
		if !reflect.DeepEqual(r, want[0]) {
			diffResult(t, name, want[0], r)
		}
	}
}

// TestStreamsReplayCheckpointWrongConsumed: a payload that decodes but
// claims a warmup length the stream does not have falls back to a cold
// warmup, on a replay and on a live run alike — no panic, no hit, and
// the cold Result. So does the right length in the old JSON format.
func TestStreamsReplayCheckpointWrongConsumed(t *testing.T) {
	cfg := sampledCheckpointConfig()
	prof := workload.MustGet(cfg.Benchmark)
	st := newMapStore()
	cold, _, err := RunGangWithCheckpoints([]Config{cfg}, st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeCheckpoint(st.m[cfg.WarmKey()])
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{"old format": oldFormatCheckpoint(t, p)}
	for _, consumed := range []uint64{0, p.Consumed - 1, p.Consumed + 1, 1 << 40} {
		bad := p
		bad.Consumed = consumed
		payloads[fmt.Sprintf("consumed %d", consumed)] = encodeCheckpoint(&bad)
	}
	s := NewStreams(1)
	for name, data := range payloads {
		for _, streams := range []*Streams{nil, s} {
			store := newMapStore()
			store.RecordArtifact(cfg.WarmKey(), data)
			res, ws, err := runGangOver([]Config{cfg}, prof, store, streams, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ws.CheckpointHit || !ws.CheckpointSaved {
				t.Errorf("%s (replay=%v): stats %+v, want a cold warmup that overwrites", name, streams != nil, ws)
			}
			if !reflect.DeepEqual(res[0], cold[0]) {
				diffResult(t, name, cold[0], res[0])
			}
		}
	}
	if s.replays.Load() == 0 {
		t.Error("the memo served no recording")
	}
}
