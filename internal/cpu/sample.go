package cpu

import (
	"resizecache/internal/bpred"
	"resizecache/internal/workload"
)

// Sampled execution support: functional fast-forward stepping and
// front-end warm-state snapshots.
//
// A fast-forward window advances exactly the *functional* half of the
// machine — the workload stream, the direction predictor/BTB/RAS, the
// fetch-group cursor, and (via cache.Level.Warm) the cache tag arrays —
// with no timing arithmetic and no energy accounting. The split is the
// same one gang execution exploits (see gang.go): everything the
// fast-forward touches is member- and configuration-invariant except
// the cache contents, which each member warms through its own
// hierarchy.
//
// A warmup prefix is a fast-forward that additionally skips cache
// warming: its end state is then a pure function of the front-end
// (Config.FrontKey() in internal/sim), which is what makes warmup
// checkpoints shareable across every configuration with the same
// front-end. FrontEndState + workload.Snapshot is that checkpoint's
// payload; changing what they capture requires a checkpoint format
// version bump (internal/sim, CONTRIBUTING.md).

// FrontEndState is the serializable warm state of an engine's shared
// front-end: the direction predictor (with accuracy counters), the BTB,
// the return-address stack, and the deferred BTB-install latch.
type FrontEndState struct {
	Predictor  bpred.PredictorState
	Stats      bpred.StatsState
	BTB        bpred.BTBState
	RAS        bpred.RASState
	PendingPC  uint64
	HasPending bool
}

// SnapshotFrontEnd captures the shared front-end warm state.
func (g *Gang) SnapshotFrontEnd() (FrontEndState, error) {
	f := &g.front
	ps, err := bpred.SnapshotPredictor(f.bp.P)
	if err != nil {
		return FrontEndState{}, err
	}
	return FrontEndState{
		Predictor:  ps,
		Stats:      f.bp.Snapshot(),
		BTB:        f.btb.Snapshot(),
		RAS:        f.ras.Snapshot(),
		PendingPC:  f.pendingPC,
		HasPending: f.hasPending,
	}, nil
}

// RestoreFrontEnd loads a front-end snapshot taken from an engine with
// the same predictor configuration. A snapshot that does not fit leaves
// the front-end untouched.
func (g *Gang) RestoreFrontEnd(s FrontEndState) error {
	f := &g.front
	if err := bpred.Restore(f.bp.P, s.Predictor, f.btb, s.BTB, f.ras, s.RAS); err != nil {
		return err
	}
	f.bp.Restore(s.Stats)
	f.pendingPC = s.PendingPC
	f.hasPending = s.HasPending
	return nil
}

// FastForward advances the shared front-end and warms every member's
// caches by up to maxInstr instructions; no cycles elapse. It returns
// how many instructions were consumed.
//
//simlint:hotpath per-instruction gang fast-forward loop
func (g *Gang) FastForward(src workload.Source, maxInstr uint64) uint64 {
	return g.advance(src, maxInstr, true)
}

// WarmupFrontEnd advances only the shared front-end (predictors, BTB,
// RAS, fetch-group cursor) — not the caches — so the resulting state is
// shareable across every configuration with the same front-end.
func (g *Gang) WarmupFrontEnd(src workload.Source, maxInstr uint64) uint64 {
	return g.advance(src, maxInstr, false)
}

// advance drives up to maxInstr instructions through the functional
// front-end only, optionally warming every member's caches. It reuses
// frontEnd.step, so the functional state evolves exactly as it does
// under detailed execution — the property the checkpoint bit-identity
// tests pin.
//
//simlint:hotpath per-instruction gang fast-forward loop; scratch state is stack-allocated
func (g *Gang) advance(src workload.Source, maxInstr uint64, warmCaches bool) uint64 {
	var (
		n       uint64
		ev      workload.Event
		scratch Activity
		front   = &g.front
		members = g.members
	)
	front.groupLeft = 0
	for n < maxInstr && src.Next(&ev) {
		n++
		newGroup, _ := front.step(&ev, &scratch)
		if !warmCaches {
			continue
		}
		isLoad := ev.Kind == workload.KindLoad
		isStore := ev.Kind == workload.KindStore
		for m := range members {
			if newGroup {
				members[m].IC.Warm(ev.PC, false)
			}
			if isLoad {
				members[m].DC.Warm(ev.Addr, false)
			} else if isStore {
				members[m].DC.Warm(ev.Addr, true)
			}
		}
	}
	return n
}
