package bpred

import "fmt"

// This file implements warm-state snapshot/restore for every predictor
// structure. The sampled execution mode serializes these states into
// persistent warmup checkpoints (internal/sim), so the field sets below
// are a wire format: changing what they capture requires bumping the
// checkpoint format version in internal/sim (see CONTRIBUTING.md).

// PredictorState is the serializable warm state of a direction
// predictor. Table holds two-bit counters one per byte; combining
// predictors store the meta table there and their components in
// Comp1/Comp2.
type PredictorState struct {
	Kind    string
	Table   []byte
	History uint64 // gshare global history
	Comp1   *PredictorState
	Comp2   *PredictorState
}

func counterBytes(t []twoBit) []byte {
	b := make([]byte, len(t))
	for i, c := range t {
		b[i] = byte(c)
	}
	return b
}

// restoreCounters checks src against dst and, when apply is set, loads
// it; restorePredictor calls it once to check and once to apply.
func restoreCounters(dst []twoBit, src []byte, what string, apply bool) error {
	if len(src) != len(dst) {
		return fmt.Errorf("bpred: %s table length %d does not match predictor's %d", what, len(src), len(dst))
	}
	for i, b := range src {
		if b > 3 {
			return fmt.Errorf("bpred: %s counter %d out of two-bit range", what, b)
		}
		if apply {
			dst[i] = twoBit(b)
		}
	}
	return nil
}

// SnapshotPredictor captures the warm state of a predictor built from
// this package's constructors. It errors on an unknown implementation,
// so a new predictor type cannot silently checkpoint as empty state.
func SnapshotPredictor(p Predictor) (PredictorState, error) {
	switch v := p.(type) {
	case *Bimodal:
		return PredictorState{Kind: "bimodal", Table: counterBytes(v.table)}, nil
	case *GShare:
		return PredictorState{Kind: "gshare", Table: counterBytes(v.table), History: v.history}, nil
	case *Combining:
		c1, err := SnapshotPredictor(v.comp1)
		if err != nil {
			return PredictorState{}, err
		}
		c2, err := SnapshotPredictor(v.comp2)
		if err != nil {
			return PredictorState{}, err
		}
		return PredictorState{Kind: "combining", Table: counterBytes(v.meta), Comp1: &c1, Comp2: &c2}, nil
	default:
		return PredictorState{}, fmt.Errorf("bpred: cannot snapshot predictor %q (%T)", p.Name(), p)
	}
}

// Restore loads the warm state of a predictor, its BTB and its RAS, all
// or nothing: every snapshot is checked against the structure it
// targets (kinds, table lengths, counter ranges, entry counts, stack
// bounds) before any is loaded, so a snapshot with one bad part leaves
// all three structures as they were.
func Restore(p Predictor, ps PredictorState, b *BTB, bs BTBState, r *RAS, rs RASState) error {
	if err := restorePredictor(p, ps, false); err != nil {
		return err
	}
	if err := b.check(bs); err != nil {
		return err
	}
	if err := r.check(rs); err != nil {
		return err
	}
	if err := restorePredictor(p, ps, true); err != nil {
		panic(err) // unreachable: the same walk passed the check above
	}
	b.restore(bs)
	r.restore(rs)
	return nil
}

// restorePredictor checks a snapshot against an already-constructed
// predictor of the same shape (same kinds, same table geometries) and,
// when apply is set, loads it. Only a checked snapshot is applied.
func restorePredictor(p Predictor, s PredictorState, apply bool) error {
	switch v := p.(type) {
	case *Bimodal:
		if s.Kind != "bimodal" {
			return fmt.Errorf("bpred: snapshot kind %q into bimodal", s.Kind)
		}
		return restoreCounters(v.table, s.Table, "bimodal", apply)
	case *GShare:
		if s.Kind != "gshare" {
			return fmt.Errorf("bpred: snapshot kind %q into gshare", s.Kind)
		}
		if err := restoreCounters(v.table, s.Table, "gshare", apply); err != nil {
			return err
		}
		if apply {
			v.history = s.History & ((1 << v.histLen) - 1)
		}
		return nil
	case *Combining:
		if s.Kind != "combining" || s.Comp1 == nil || s.Comp2 == nil {
			return fmt.Errorf("bpred: snapshot kind %q into combining", s.Kind)
		}
		if err := restoreCounters(v.meta, s.Table, "combining meta", apply); err != nil {
			return err
		}
		if err := restorePredictor(v.comp1, *s.Comp1, apply); err != nil {
			return err
		}
		return restorePredictor(v.comp2, *s.Comp2, apply)
	default:
		return fmt.Errorf("bpred: cannot restore predictor %q (%T)", p.Name(), p)
	}
}

// BTBState is the serializable warm state of a BTB: parallel per-entry
// arrays plus the LRU clock and hit counters.
type BTBState struct {
	Tags    []uint64
	Targets []uint64
	LRU     []uint64
	Valid   []byte
	Clock   uint64
	Lookups uint64
	Hits    uint64
}

// Snapshot captures the BTB's warm state.
func (b *BTB) Snapshot() BTBState {
	n := len(b.entries)
	s := BTBState{
		Tags:    make([]uint64, n),
		Targets: make([]uint64, n),
		LRU:     make([]uint64, n),
		Valid:   make([]byte, n),
		Clock:   b.clock,
		Lookups: b.Lookups,
		Hits:    b.Hits,
	}
	for i := range b.entries {
		e := &b.entries[i]
		s.Tags[i] = e.tag
		s.Targets[i] = e.tgt
		s.LRU[i] = e.lru
		if e.valid {
			s.Valid[i] = 1
		}
	}
	return s
}

// check reports whether a snapshot fits a BTB of this geometry.
func (b *BTB) check(s BTBState) error {
	n := len(b.entries)
	if len(s.Tags) != n || len(s.Targets) != n || len(s.LRU) != n || len(s.Valid) != n {
		return fmt.Errorf("bpred: BTB snapshot entry count does not match geometry (%d entries)", n)
	}
	return nil
}

// restore loads a checked snapshot.
func (b *BTB) restore(s BTBState) {
	for i := range b.entries {
		b.entries[i] = btbEntry{tag: s.Tags[i], tgt: s.Targets[i], lru: s.LRU[i], valid: s.Valid[i] != 0}
	}
	b.clock = s.Clock
	b.Lookups = s.Lookups
	b.Hits = s.Hits
}

// RASState is the serializable warm state of a return-address stack.
type RASState struct {
	Stack  []uint64
	Top    int
	Depth  int
	Pushes uint64
	Pops   uint64
}

// Snapshot captures the RAS's warm state.
func (r *RAS) Snapshot() RASState {
	return RASState{
		Stack:  append([]uint64(nil), r.stack...),
		Top:    r.top,
		Depth:  r.depth,
		Pushes: r.Pushes,
		Pops:   r.Pops,
	}
}

// check reports whether a snapshot fits a RAS of this capacity.
func (r *RAS) check(s RASState) error {
	if len(s.Stack) != len(r.stack) {
		return fmt.Errorf("bpred: RAS snapshot depth %d does not match capacity %d", len(s.Stack), len(r.stack))
	}
	if s.Top < 0 || s.Top >= len(r.stack) || s.Depth < 0 || s.Depth > len(r.stack) {
		return fmt.Errorf("bpred: RAS snapshot top/depth out of range")
	}
	return nil
}

// restore loads a checked snapshot.
func (r *RAS) restore(s RASState) {
	copy(r.stack, s.Stack)
	r.top = s.Top
	r.depth = s.Depth
	r.Pushes = s.Pushes
	r.Pops = s.Pops
}

// StatsState is the serializable accuracy-counter state of Stats.
type StatsState struct {
	Lookups    uint64
	Mispredict uint64
}

// Snapshot captures the accuracy counters (the wrapped predictor is
// snapshotted separately via SnapshotPredictor).
func (s *Stats) Snapshot() StatsState {
	return StatsState{Lookups: s.Lookups, Mispredict: s.Mispredict}
}

// Restore loads the accuracy counters.
func (s *Stats) Restore(st StatsState) {
	s.Lookups = st.Lookups
	s.Mispredict = st.Mispredict
}
