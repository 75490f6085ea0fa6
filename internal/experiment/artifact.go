package experiment

import (
	"context"
	"fmt"

	"resizecache/internal/core"
	"resizecache/internal/payload"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// Sweep-artifact caching: the winner selections of Sweep.Best are
// sweep-level artifacts — pure functions of the sweep's definition
// (SweepSpec.ArtifactKey) — and every figure driver re-derives the same
// grids (Figure 6 repeats Figure 4's ways/sets cells, Figure 9 repeats
// Figure 5's and 8's selective-sets winners). The helpers here memoize a
// Best through the runner's two-tier artifact cache (in-memory +
// persistent store) under that fingerprint, so regenerating one figure
// warms the next and a resumed cmd/figures run skips whole sweeps.

// artifactVersion tags what a sweep fingerprint does not hash: the
// serialized Best schema, winner selection (Sweep.Best's reduction,
// describe) and candidate enumeration (the static policy list,
// dynamicCandidates, applySide). Bump it whenever any of them changes:
// persisted artifacts from older code are then unreachable (different
// fingerprints) instead of misapplied. TestSweepBatchesPinned fails
// when the enumeration changes.
// Version 2: sim.Result gained the per-level hierarchy reports.
// Version 3: sweeps are keyed by their definition, not by the key of
// every config in their batch.
// Version 4: a Best is stored in the binary layout of encodeBest, not
// as JSON.
const artifactVersion = 4

// cachedBest resolves a sweep's Best through the runner's artifact
// cache under its fingerprint, running compute only on a cold key. A
// cached payload that no longer decodes (e.g. a store written by a
// foreign build) is a miss: the runner recomputes it once and records
// the fresh payload in both tiers.
func cachedBest(ctx context.Context, r *runner.Runner, key sim.Key, compute func(context.Context) (Best, error)) (Best, error) {
	var best Best
	err := r.Artifact(ctx, key, func(data []byte) (err error) {
		best, err = decodeBest(data)
		return err
	}, func(ctx context.Context) ([]byte, error) {
		fresh, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		fresh = stripTraces(fresh)
		return encodeBest(&fresh), nil
	})
	if err != nil {
		return Best{}, err
	}
	return best, nil
}

// encodeBest seals a Best's binary layout for the artifact store; sim
// owns the layout of its two Results. decodeBest mirrors it line for
// line, and TestBestLayoutCoversEveryField fails when a field of Best
// is missing from either.
func encodeBest(b *Best) []byte {
	var w payload.Writer
	w.Str(b.App)
	w.Int(int(b.Side))
	w.Int(int(b.Org))
	w.Str(b.Desc)
	w.Int(int(b.Spec.Kind))
	w.Int(b.Spec.StaticIndex)
	w.Uvarint(b.Spec.Interval)
	w.Uvarint(b.Spec.MissBound)
	w.Int(b.Spec.SizeBoundBytes)
	w.Int(b.Spec.UpsizeHoldIntervals)
	b.Chosen.AppendPayload(&w)
	b.Base.AppendPayload(&w)
	w.Len(len(b.Resized), b.Resized == nil)
	for _, s := range b.Resized {
		w.Int(int(s))
	}
	return w.Seal()
}

// decodeBest opens a payload encodeBest sealed.
func decodeBest(data []byte) (Best, error) {
	var b Best
	rd := payload.Open(data)
	b.App = rd.Str()
	b.Side = Side(rd.Int())
	b.Org = core.Organization(rd.Int())
	b.Desc = rd.Str()
	b.Spec.Kind = sim.PolicyKind(rd.Int())
	b.Spec.StaticIndex = rd.Int()
	b.Spec.Interval = rd.Uvarint()
	b.Spec.MissBound = rd.Uvarint()
	b.Spec.SizeBoundBytes = rd.Int()
	b.Spec.UpsizeHoldIntervals = rd.Int()
	b.Chosen.ReadPayload(&rd)
	b.Base.ReadPayload(&rd)
	if n, isNil := rd.Len(); !isNil {
		b.Resized = make([]Side, n)
		for i := range b.Resized {
			b.Resized[i] = Side(rd.Int())
		}
	}
	if err := rd.Done(); err != nil {
		return Best{}, fmt.Errorf("experiment: cached Best: %w", err)
	}
	return b, nil
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
