// Package storetest is the runner.Store conformance suite: one set of
// contract assertions every backend — MemStore, DiskStore, NetStore
// against an in-process daemon, and any future sharded store — must
// pass. The contract under test is the Store interface doc plus the
// parts the Runner relies on: result and error round trips, artifact
// round trips with the non-JSON-drop rule, record-buffer independence,
// and stored outcomes (results and failures alike) replaying through a
// Runner without re-simulating.
package storetest

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/stats"
)

// key returns a distinct deterministic fingerprint per seed.
func key(seed byte) sim.Key {
	var k sim.Key
	for i := range k {
		k[i] = seed + byte(i)
	}
	return k
}

// sampleResult is a representative outcome: scalar, float, and slice
// fields all set, so a lossy round trip (JSON or wire) cannot hide. The
// floats are binary-exact in JSON.
func sampleResult() sim.Result {
	return sim.Result{
		EDP: stats.EDP{EnergyJ: 0.125, Cycles: 123456},
		DCache: sim.CacheReport{Accesses: 42, MissRatio: 0.25, AvgBytes: 16384,
			FullBytes: 32768, Resizes: 3, FlushedBlocks: 7,
			SizeTrace: []int{32768, 16384, 16384},
			EnergyPJ:  12.5, SwitchingPJ: 10.5, BackgroundPJ: 2},
		ICache: sim.CacheReport{Accesses: 99, FullBytes: 32768},
		Levels: []sim.LevelReport{{Name: "L2",
			CacheReport: sim.CacheReport{Accesses: 7, FullBytes: 512 << 10}}},
	}
}

// Run exercises one Store implementation against the full contract.
// open must return a fresh, empty store per call; it is called once per
// subtest, so backends with per-instance state (temp files, daemon
// connections) get clean fixtures.
func Run(t *testing.T, open func(t *testing.T) runner.Store) {
	t.Run("ResultRoundTrip", func(t *testing.T) {
		s := open(t)
		want := runner.StoredResult{Result: sampleResult()}
		s.Record(key(1), want)
		got, ok := s.Lookup(key(1))
		if !ok {
			t.Fatal("recorded result not found")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mutated the result:\n got %+v\nwant %+v", got, want)
		}
		if _, ok := s.Lookup(key(2)); ok {
			t.Error("lookup of an unrecorded key reported a hit")
		}
	})

	t.Run("ErrorRoundTrip", func(t *testing.T) {
		s := open(t)
		want := runner.StoredResult{Err: "workload exploded"}
		s.Record(key(3), want)
		got, ok := s.Lookup(key(3))
		if !ok {
			t.Fatal("recorded failure not found")
		}
		if got.Err != want.Err {
			t.Errorf("Err = %q, want %q", got.Err, want.Err)
		}
	})

	t.Run("ArtifactRoundTrip", func(t *testing.T) {
		s := open(t)
		payload := []byte(`{"winner":3,"edp":0.5}`)
		s.RecordArtifact(key(4), payload)
		got, ok := s.LookupArtifact(key(4))
		if !ok {
			t.Fatal("recorded artifact not found")
		}
		if string(got) != string(payload) {
			t.Errorf("artifact = %s, want %s", got, payload)
		}
		if _, ok := s.LookupArtifact(key(5)); ok {
			t.Error("lookup of an unrecorded artifact key reported a hit")
		}
	})

	t.Run("LargeArtifactRoundTrip", func(t *testing.T) {
		// Warmup checkpoints serialize whole front-end snapshots, so
		// payloads run to megabytes; every backend must round-trip them
		// byte-for-byte (the wire protocol's frame bound is 64MB).
		s := open(t)
		blob := make([]byte, 0, 2<<20)
		blob = append(blob, `{"snapshot":"`...)
		for len(blob) < 2<<20 {
			blob = append(blob, "0123456789abcdef"...)
		}
		blob = append(blob, `"}`...)
		s.RecordArtifact(key(9), blob)
		got, ok := s.LookupArtifact(key(9))
		if !ok {
			t.Fatalf("%d-byte artifact not found", len(blob))
		}
		if !reflect.DeepEqual(got, blob) {
			t.Errorf("large artifact mutated: %d bytes back, want %d", len(got), len(blob))
		}
	})

	t.Run("BinarySafeArtifactRoundTrip", func(t *testing.T) {
		// Checkpoint payloads carry arbitrary machine state inside JSON
		// strings: every byte value (escaped per JSON), multi-byte UTF-8,
		// quotes, and backslashes must survive every backend unchanged.
		s := open(t)
		raw := make([]byte, 256)
		for i := range raw {
			raw[i] = byte(i)
		}
		quoted, err := json.Marshal(string(raw) + `"\` + "héllo  ")
		if err != nil {
			t.Fatal(err)
		}
		payload := append([]byte(`{"state":`), quoted...)
		payload = append(payload, '}')
		s.RecordArtifact(key(10), payload)
		got, ok := s.LookupArtifact(key(10))
		if !ok {
			t.Fatal("binary-bearing artifact not found")
		}
		if !reflect.DeepEqual(got, payload) {
			t.Errorf("binary content mutated:\n got %q\nwant %q", got, payload)
		}
	})

	t.Run("ArtifactOverwrite", func(t *testing.T) {
		// Corrupt-checkpoint recovery overwrites in place; the last write
		// must win on every backend.
		s := open(t)
		s.RecordArtifact(key(11), []byte(`{"v":1}`))
		s.RecordArtifact(key(11), []byte(`{"v":2}`))
		got, ok := s.LookupArtifact(key(11))
		if !ok {
			t.Fatal("overwritten artifact not found")
		}
		if string(got) != `{"v":2}` {
			t.Errorf("overwrite did not win: got %s", got)
		}
	})

	t.Run("NonJSONArtifactDropped", func(t *testing.T) {
		s := open(t)
		s.RecordArtifact(key(6), []byte("not json at all"))
		if _, ok := s.LookupArtifact(key(6)); ok {
			t.Error("non-JSON artifact was stored; the contract says it stays a miss")
		}
	})

	t.Run("RecordBufferIndependence", func(t *testing.T) {
		s := open(t)
		payload := []byte(`{"v":1}`)
		s.RecordArtifact(key(7), payload)
		payload[5] = '2' // the caller reuses its buffer
		got, ok := s.LookupArtifact(key(7))
		if !ok {
			t.Fatal("recorded artifact not found")
		}
		if string(got) != `{"v":1}` {
			t.Errorf("artifact aliases the caller's buffer: got %s", got)
		}
	})

	t.Run("FlushSucceeds", func(t *testing.T) {
		s := open(t)
		s.Record(key(8), runner.StoredResult{Result: sampleResult()})
		if err := s.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	})

	t.Run("StoredResultReplay", func(t *testing.T) {
		s := open(t)
		cfg := sim.Default("gcc")
		cfg.Instructions = 1000
		want := sampleResult()
		s.Record(cfg.Key(), runner.StoredResult{Result: want})
		r := runner.New(runner.Options{Store: s, RunGang: func(sim.Gang) error {
			t.Error("stored config was re-simulated")
			return nil
		}})
		got, err := r.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replayed result differs:\n got %+v\nwant %+v", got, want)
		}
		if st := r.Stats(); st.StoreHits != 1 || st.Runs != 0 {
			t.Errorf("stats = %v; want 1 store hit, 0 runs", st)
		}
	})

	t.Run("StoredErrorReplay", func(t *testing.T) {
		s := open(t)
		cfg := sim.Default("gcc")
		cfg.Instructions = 1000
		s.Record(cfg.Key(), runner.StoredResult{Err: "known-bad config"})
		r := runner.New(runner.Options{Store: s, RunGang: func(sim.Gang) error {
			t.Error("stored failure was re-simulated")
			return nil
		}})
		_, err := r.Run(context.Background(), cfg)
		var stored *runner.StoredError
		if !errors.As(err, &stored) {
			t.Fatalf("Run error = %v; want a replayed *StoredError", err)
		}
		if stored.Msg != "known-bad config" {
			t.Errorf("replayed message = %q, want %q", stored.Msg, "known-bad config")
		}
	})
}

// RunUnreachable exercises the graceful-degradation half of the Store
// contract: a backend that cannot reach its medium (a dead daemon, a
// tripped circuit breaker) must answer lookups as misses and swallow
// records — without returning errors to the Runner and within bounded
// time — while Flush, which promises durability, must fail loudly.
// open must return a store whose backend is unreachable by
// construction; maxPerOp bounds how long any single degraded operation
// may take (pass the store's worst-case timeout budget).
func RunUnreachable(t *testing.T, open func(t *testing.T) runner.Store, maxPerOp time.Duration) {
	// timed fails the test if op outlives maxPerOp — degradation that
	// blocks for minutes is an outage with extra steps.
	timed := func(t *testing.T, name string, op func()) {
		t.Helper()
		start := time.Now()
		op()
		if elapsed := time.Since(start); elapsed > maxPerOp {
			t.Errorf("%s took %v against an unreachable backend; want under %v", name, elapsed, maxPerOp)
		}
	}

	t.Run("LookupsDegradeToMisses", func(t *testing.T) {
		s := open(t)
		timed(t, "Lookup", func() {
			if _, ok := s.Lookup(key(1)); ok {
				t.Error("Lookup against an unreachable backend reported a hit")
			}
		})
		timed(t, "LookupArtifact", func() {
			if _, ok := s.LookupArtifact(key(2)); ok {
				t.Error("LookupArtifact against an unreachable backend reported a hit")
			}
		})
	})

	t.Run("RecordsDroppedSilently", func(t *testing.T) {
		s := open(t)
		timed(t, "Record", func() {
			s.Record(key(3), runner.StoredResult{Result: sampleResult()})
		})
		timed(t, "RecordArtifact", func() {
			s.RecordArtifact(key(4), []byte(`{"v":1}`))
		})
	})

	t.Run("FlushFailsLoudly", func(t *testing.T) {
		s := open(t)
		timed(t, "Flush", func() {
			if err := s.Flush(); err == nil {
				t.Error("Flush against an unreachable backend returned nil; durability cannot be promised")
			}
		})
	})

	t.Run("RunnerStillSimulates", func(t *testing.T) {
		s := open(t)
		cfg := sim.Default("gcc")
		cfg.Instructions = 1000
		want := sampleResult()
		r := runner.New(runner.Options{Store: s, RunGang: func(g sim.Gang) error {
			*g.Out[0] = want
			return nil
		}})
		var got sim.Result
		var err error
		timed(t, "Runner.Run", func() { got, err = r.Run(context.Background(), cfg) })
		if err != nil {
			t.Fatalf("Run with an unreachable store: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("degraded run mutated the result:\n got %+v\nwant %+v", got, want)
		}
		if st := r.Stats(); st.Runs != 1 || st.StoreHits != 0 {
			t.Errorf("stats = %v; want 1 run, 0 store hits", st)
		}
	})
}
