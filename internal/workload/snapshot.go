package workload

import "fmt"

// Snapshot is the generator's complete mutable state at an instruction
// boundary. It contains only plain data (no pointers into the generator),
// so it can be serialized into a warmup checkpoint and restored into a
// fresh Generator built from the same Profile. The per-phase hoist tables
// are deliberately absent: they are a pure function of (profile,
// phaseIdx) and Restore rebuilds them without consuming RNG draws.
type Snapshot struct {
	RNG         uint64
	Instr       uint64
	PhaseIdx    int
	PhaseLeft   uint64
	Exhausted   bool
	DCursors    []int
	ICursor     int
	DConfCursor int
	IConfCursor int
	ColdCursor  uint64
	RunAddr     uint64
	RunLeft     int
	BrCounter   int
	CallDepth   int
}

// Snapshot captures the generator state. The returned value owns its
// slices (they do not alias generator storage).
func (g *Generator) Snapshot() Snapshot {
	return Snapshot{
		RNG:         g.r.s,
		Instr:       g.instr,
		PhaseIdx:    g.phaseIdx,
		PhaseLeft:   g.phaseLeft,
		Exhausted:   g.exhausted,
		DCursors:    append([]int(nil), g.dCursors...),
		ICursor:     g.iCursor,
		DConfCursor: g.dConfCursor,
		IConfCursor: g.iConfCursor,
		ColdCursor:  g.coldCursor,
		RunAddr:     g.runAddr,
		RunLeft:     g.runLeft,
		BrCounter:   g.brCounter,
		CallDepth:   g.callDepth,
	}
}

// CheckSnapshot reports whether s is a state a generator over p can
// reach, within every bound Next and Skip index or wrap by: a snapshot
// from a stored checkpoint is untrusted, and Restore of one that fails
// here could panic the generator. Its phase position must also be the
// one Instr puts it at, so a restored generator has exactly as much
// stream left as a stepped one. An exhausted snapshot never steps
// again, so beyond that only its RNG is checked.
func (p *Profile) CheckSnapshot(s Snapshot) error {
	if s.RNG == 0 {
		return fmt.Errorf("workload: snapshot RNG state is zero")
	}
	total := p.TotalPhaseInstructions()
	if s.Exhausted {
		if p.Periodic || s.Instr != total {
			return fmt.Errorf("workload: snapshot exhausted at instruction %d of a %d-instruction stream", s.Instr, total)
		}
		return nil
	}
	if s.PhaseIdx < 0 || s.PhaseIdx >= len(p.Phases) {
		return fmt.Errorf("workload: snapshot phase %d of %d", s.PhaseIdx, len(p.Phases))
	}
	ph := &p.Phases[s.PhaseIdx]
	if s.PhaseLeft > ph.Instructions {
		return fmt.Errorf("workload: snapshot has %d instructions left of a %d-instruction phase", s.PhaseLeft, ph.Instructions)
	}
	pos := ph.Instructions - s.PhaseLeft
	for _, q := range p.Phases[:s.PhaseIdx] {
		pos += q.Instructions
	}
	if instr := s.Instr; pos != instr && !(p.Periodic && total > 0 && pos%total == instr%total) {
		return fmt.Errorf("workload: snapshot phase position %d does not match instruction %d", pos, instr)
	}
	if len(s.DCursors) != len(ph.DLevels) {
		return fmt.Errorf("workload: snapshot has %d data cursors for %d levels", len(s.DCursors), len(ph.DLevels))
	}
	for j, c := range s.DCursors {
		if c < 0 || c >= max(ph.DLevels[j].Blocks, 1) {
			return fmt.Errorf("workload: snapshot data cursor %d out of level %d's %d blocks", c, j, ph.DLevels[j].Blocks)
		}
	}
	if len(ph.ILevels) > 0 {
		if bytes := max(ph.ILevels[0].Blocks*blockBytes, blockBytes); s.ICursor < 0 || s.ICursor >= bytes || s.ICursor%instrBytes != 0 {
			return fmt.Errorf("workload: snapshot code cursor %d out of a %d-byte hot loop", s.ICursor, bytes)
		}
	}
	if s.DConfCursor < 0 || s.IConfCursor < 0 || s.BrCounter < 0 {
		return fmt.Errorf("workload: snapshot has a negative cursor")
	}
	if s.RunLeft < 0 || s.RunLeft > maxRunLeft {
		return fmt.Errorf("workload: snapshot spatial run %d out of [0, %d]", s.RunLeft, maxRunLeft)
	}
	if s.CallDepth < 0 || s.CallDepth > maxCallDepth {
		return fmt.Errorf("workload: snapshot call depth %d out of [0, %d]", s.CallDepth, maxCallDepth)
	}
	return nil
}

// Restore rewinds (or fast-forwards) the generator to a snapshot taken
// from a generator built over the same profile. After Restore the event
// stream continues exactly as it would have from the snapshot point.
// Restore trusts s; check an untrusted one with Profile.CheckSnapshot
// first.
func (g *Generator) Restore(s Snapshot) {
	g.r.s = s.RNG
	g.instr = s.Instr
	g.exhausted = s.Exhausted
	if !s.Exhausted {
		g.rebuildPhaseHoists(s.PhaseIdx)
	}
	g.phaseLeft = s.PhaseLeft
	g.dCursors = reuse(g.dCursors, len(s.DCursors))
	copy(g.dCursors, s.DCursors)
	g.iCursor = s.ICursor
	g.dConfCursor = s.DConfCursor
	g.iConfCursor = s.IConfCursor
	g.coldCursor = s.ColdCursor
	g.runAddr = s.RunAddr
	g.runLeft = s.RunLeft
	g.brCounter = s.BrCounter
	g.callDepth = s.CallDepth
}
