package workload

import "testing"

// TestCheckSnapshotAcceptsReachableStates: every state a generator
// reaches by stepping and skipping, on every profile and across phase
// boundaries, passes the check a stored checkpoint's snapshot must pass
// — a check that rejected one would silently turn checkpoint hits into
// cold warmups.
func TestCheckSnapshotAcceptsReachableStates(t *testing.T) {
	var ev Event
	for _, name := range Names() {
		p := MustGet(name)
		g := NewGenerator(p)
		for round := 0; round < 40; round++ {
			if err := p.CheckSnapshot(g.Snapshot()); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			for i := 0; i < 2_000; i++ {
				g.Next(&ev)
			}
			g.Skip(p.TotalPhaseInstructions() / 7)
		}
	}
}

// TestCheckSnapshotRejectsOutOfRange: each bound Next and Skip rely on
// rejects a snapshot outside it, and so does a phase position or an
// exhaustion that disagrees with the instruction count.
func TestCheckSnapshotRejectsOutOfRange(t *testing.T) {
	p := MustGet("gcc")
	g := NewGenerator(p)
	var ev Event
	for i := 0; i < 1_000; i++ {
		g.Next(&ev)
	}
	for name, cut := range map[string]func(*Snapshot){
		"zero rng":         func(s *Snapshot) { s.RNG = 0 },
		"phase":            func(s *Snapshot) { s.PhaseIdx = 99 },
		"negative phase":   func(s *Snapshot) { s.PhaseIdx = -1 },
		"phase left":       func(s *Snapshot) { s.PhaseLeft = p.Phases[s.PhaseIdx].Instructions + 1 },
		"no data cursors":  func(s *Snapshot) { s.DCursors = nil },
		"data cursor":      func(s *Snapshot) { s.DCursors[0] = p.Phases[s.PhaseIdx].DLevels[0].Blocks },
		"code cursor":      func(s *Snapshot) { s.ICursor = 2 },
		"negative cursor":  func(s *Snapshot) { s.DConfCursor = -1 },
		"spatial run":      func(s *Snapshot) { s.RunLeft = maxRunLeft + 1 },
		"call depth":       func(s *Snapshot) { s.CallDepth = maxCallDepth + 1 },
		"negative counter": func(s *Snapshot) { s.BrCounter = -1 },
		"position":         func(s *Snapshot) { s.Instr++ },
		"exhausted early":  func(s *Snapshot) { s.Exhausted = true },
	} {
		s := g.Snapshot()
		cut(&s)
		if err := p.CheckSnapshot(s); err == nil {
			t.Errorf("%s: out-of-range snapshot accepted", name)
		}
	}
}
