package runner

import (
	"context"
	"sync/atomic"

	"resizecache/internal/sim"
)

// The sweep-artifact cache: figure drivers repeat whole profiling
// sweeps, not just individual configs — Figures 5, 6, 8 and 9 all
// re-derive profiling-sweep grids the previous figure already
// selected. Artifact memoizes the *outcome of a sweep* (an opaque
// serialized payload, typically a winner selection) under a
// content-addressed fingerprint, so a warm sweep resolves without
// submitting a single config. Two tiers back it: the in-memory artifact
// table (per Runner) and, when the Runner has a Store, the persistent
// backend shared with per-config results — so cmd/figures -resume skips
// whole sweeps across processes, not just simulations.
//
// The payload is opaque to the runner on purpose: the experiment layer
// owns the schema (and versions it inside its fingerprints), which keeps
// the dependency arrow pointing from experiment to runner.

// Artifact resolves a sweep-level artifact: the in-memory tier first,
// then the persistent store, then compute. decode is called on the
// payload the call accepts, and must not keep the slice: every hit
// shares it. A cached payload that decode rejects, from either tier, is
// a miss: it is dropped and recomputed. Concurrent calls for the same
// key run the store lookup and compute once, the others waiting for
// it. A computed payload that decode accepts is memoized in memory and
// recorded to the store; errors, and payloads decode rejects, are never
// memoized: the per-config memo table underneath already replays stored
// failures cheaply, and caching a cancellation would poison the
// fingerprint for later live contexts.
//
// Payloads must be valid JSON (the Store contract embeds them in JSON
// documents). The cache keeps the slice compute returns.
func (r *Runner) Artifact(ctx context.Context, key sim.Key, decode func([]byte) error, compute func(context.Context) ([]byte, error)) error {
	accept := func(a artifact) error {
		err := decode(a.data)
		if err == nil && a.storeHit != nil && !a.storeHit.Swap(true) {
			r.artStoreHits.Add(1)
		}
		return err
	}
	_, err, from := r.artifacts.do(ctx, key, accept, func(s *slot[artifact]) {
		if r.store != nil {
			if data, ok := r.store.LookupArtifact(key); ok && decode(data) == nil {
				r.artStoreHits.Add(1)
				r.artifacts.publish(key, s, artifact{data: data}, nil)
				return
			}
		}
		r.artComputes.Add(1)
		data, err := compute(ctx)
		if err == nil {
			err = decode(data)
		}
		if err == nil && r.store != nil {
			r.store.RecordArtifact(key, data)
		}
		r.artifacts.publish(key, s, artifact{data: data}, err)
	})
	if err == nil && from != owned {
		r.artHits.Add(1)
	}
	return err
}

// artifact is one artifact table value. storeHit is non-nil for a
// payload HasArtifact moved in from the store: the first decode to
// accept it sets it and counts the store hit, so a promoted payload that
// turns out stale counts only as the compute that replaces it.
type artifact struct {
	data     []byte
	storeHit *atomic.Bool
}

// HasArtifact reports whether an artifact fingerprint would resolve
// without computing: it is memoized (or being computed right now) in the
// in-memory tier, or present in the persistent store. Batch schedulers
// probe it before enqueueing a sweep's simulations, so warm sweeps cost
// nothing — not even redundant submissions that would immediately
// memo-hit. A store hit is promoted into the in-memory tier, so the
// gather that follows the probe resolves from memory instead of fetching
// the payload a second time. HasArtifact does not decode: the gather's
// first decode that accepts the promoted payload counts it as an
// artifact store hit, and a promoted payload the decode rejects is a
// miss there.
func (r *Runner) HasArtifact(key sim.Key) bool {
	if s, _ := r.artifacts.peek(key); s != nil {
		return true
	}
	if r.store == nil {
		return false
	}
	data, ok := r.store.LookupArtifact(key)
	if !ok {
		return false
	}
	if s, from := r.artifacts.claim(key, false); from == owned {
		r.artifacts.publish(key, s, artifact{data: data, storeHit: new(atomic.Bool)}, nil)
	}
	return true
}
