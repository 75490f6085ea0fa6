package experiment

import (
	"context"
	"encoding/json"

	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// Sweep-artifact caching: BestStatic/BestDynamic winner selections are
// sweep-level artifacts — pure functions of the configs the sweep runs —
// and every figure driver re-derives the same grids (Figure 6 repeats
// Figure 4's ways/sets cells, Figure 9 repeats Figure 5's and 8's
// selective-sets winners). The helpers here memoize a Best through the
// runner's two-tier artifact cache (in-memory + persistent store) under
// a content-addressed fingerprint, so regenerating one figure warms the
// next and a resumed cmd/figures run skips whole sweeps.

// artifactVersion tags the serialized Best schema and the
// winner-selection algorithm (pickBest, candidate enumeration). Bump it
// whenever either changes: persisted artifacts from older code are then
// unreachable (different fingerprints) instead of misapplied.
// Version 2: sim.Result gained the per-level hierarchy reports.
const artifactVersion = 2

// sweepArtifactKey fingerprints one winner-selection sweep: the sweep
// kind plus the content fingerprint of every config it would run, in
// order. Anything that changes any underlying simulation — app, side,
// organization, associativity, schedule, engine, instruction budget,
// energy model, the sim.Key encoding itself — changes some cfg.Key()
// and therefore the artifact key, so no Options field needs to be
// enumerated here. Sweep.artifactKey computes the same key by streaming
// the configs through one scratch config, so a warm sweep never
// materializes its batch: the []sim.Config is built only on the cold
// path (an artifact miss, or a sweep EnqueueSweeps finds cold).
func sweepArtifactKey(kind string, cfgs []sim.Config) sim.Key {
	b := newSweepKeyBuilder(kind)
	for i := range cfgs {
		b.RawKey(cfgs[i].Key())
	}
	return b.Sum()
}

// newSweepKeyBuilder starts a sweep fingerprint: domain, schema version
// and sweep kind, ready for the configs' keys.
func newSweepKeyBuilder(kind string) *sim.KeyBuilder {
	return sim.NewKeyBuilder("experiment/sweep").Int(artifactVersion).Str(kind)
}

// cachedBest resolves a sweep's Best through the runner's artifact
// cache under its fingerprint, running compute only on a cold key. A
// payload that no longer decodes (e.g. a store written by a foreign
// build) falls back to the direct sweep and repairs both cache tiers
// with the fresh payload, so the broken bytes cost one recompute, not
// one per call.
func cachedBest(ctx context.Context, r *runner.Runner, key sim.Key, compute func(context.Context) (Best, error)) (Best, error) {
	data, err := r.Artifact(ctx, key, func(ctx context.Context) ([]byte, error) {
		best, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(stripTraces(best))
	})
	if err != nil {
		return Best{}, err
	}
	var best Best
	if err := json.Unmarshal(data, &best); err != nil {
		fresh, cerr := compute(ctx)
		if cerr != nil {
			return Best{}, cerr
		}
		fresh = stripTraces(fresh)
		if repaired, merr := json.Marshal(fresh); merr == nil {
			r.PutArtifact(key, repaired)
		}
		return fresh, nil
	}
	return best, nil
}

// stripTraces drops the per-interval size traces from a Best's results
// before caching. No figure or facade consumer reads a trace through a
// Best (they come from direct sim runs), and a dynamic winner's trace
// is by far the largest field — hundreds of ints per cache, repeated in
// every artifact sharing the baseline. Stripping uniformly on the cold
// path too keeps cold and warm Bests identical.
func stripTraces(b Best) Best {
	strip := func(r sim.Result) sim.Result {
		r.DCache.SizeTrace = nil
		r.ICache.SizeTrace = nil
		if len(r.Levels) > 0 {
			levels := append([]sim.LevelReport(nil), r.Levels...)
			for i := range levels {
				levels[i].SizeTrace = nil
			}
			r.Levels = levels
		}
		return r
	}
	b.Chosen = strip(b.Chosen)
	b.Base = strip(b.Base)
	return b
}
