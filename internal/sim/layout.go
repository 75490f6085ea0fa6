package sim

import (
	"fmt"

	"resizecache/internal/bpred"
	"resizecache/internal/payload"
)

// Binary layouts of the two stored structs sim owns: a Result (inside
// every cached sweep winner, internal/experiment) and a warmup
// checkpoint. Each writer lists its struct's fields in declaration
// order and its reader mirrors it line for line; TestLayoutsCoverEveryField
// fails when a field is added to any struct here without a line in
// both. A layout change must bump the version that keys its payloads:
// artifactVersion (internal/experiment) for Result, and
// checkpointFormatVersion for the checkpoint (see CONTRIBUTING).

// AppendPayload writes r's binary layout.
func (r *Result) AppendPayload(w *payload.Writer) {
	w.Uvarint(r.CPU.Instructions)
	w.Uvarint(r.CPU.Cycles)
	a := &r.CPU.Activity
	for _, v := range [...]uint64{a.IntOps, a.FloatOps, a.Loads, a.Stores, a.Branches,
		a.Mispredicts, a.FetchGroups, a.ROBInserts, a.LSQInserts, a.RegReads,
		a.RegWrites, a.BpredLookups, a.BTBLookups, a.RASOps} {
		w.Uvarint(v)
	}
	w.F64(r.CPU.BranchAccuracy)
	e := &r.Energy
	w.F64(e.CorePJ)
	w.F64(e.L1IPJ)
	w.F64(e.L1DPJ)
	w.F64(e.L2PJ)
	w.F64(e.MemPJ)
	w.F64(r.EDP.EnergyJ)
	w.Uvarint(r.EDP.Cycles)
	r.DCache.appendPayload(w)
	r.ICache.appendPayload(w)
	w.Len(len(r.Levels), r.Levels == nil)
	for i := range r.Levels {
		w.Str(r.Levels[i].Name)
		r.Levels[i].appendPayload(w)
	}
	w.Bool(r.Sample != nil)
	if s := r.Sample; s != nil {
		w.Int(s.Windows)
		w.Uvarint(s.WarmupInstructions)
		w.Uvarint(s.DetailedInstructions)
		w.Uvarint(s.TotalInstructions)
		w.F64(s.Scale)
		w.F64(s.CPIRelStdErr)
		w.F64(s.EPIRelStdErr)
		w.F64(s.EDPRelStdErr)
	}
}

// ReadPayload reads a Result written by AppendPayload into r; a
// malformed layout sets rd's error.
func (r *Result) ReadPayload(rd *payload.Reader) {
	r.CPU.Instructions = rd.Uvarint()
	r.CPU.Cycles = rd.Uvarint()
	a := &r.CPU.Activity
	for _, p := range [...]*uint64{&a.IntOps, &a.FloatOps, &a.Loads, &a.Stores, &a.Branches,
		&a.Mispredicts, &a.FetchGroups, &a.ROBInserts, &a.LSQInserts, &a.RegReads,
		&a.RegWrites, &a.BpredLookups, &a.BTBLookups, &a.RASOps} {
		*p = rd.Uvarint()
	}
	r.CPU.BranchAccuracy = rd.F64()
	e := &r.Energy
	e.CorePJ = rd.F64()
	e.L1IPJ = rd.F64()
	e.L1DPJ = rd.F64()
	e.L2PJ = rd.F64()
	e.MemPJ = rd.F64()
	r.EDP.EnergyJ = rd.F64()
	r.EDP.Cycles = rd.Uvarint()
	r.DCache.readPayload(rd)
	r.ICache.readPayload(rd)
	r.Levels = nil
	if n, isNil := rd.LenMin(levelMinBytes); !isNil {
		r.Levels = make([]LevelReport, n)
		for i := range r.Levels {
			r.Levels[i].Name = rd.Str()
			r.Levels[i].readPayload(rd)
		}
	}
	r.Sample = nil
	if rd.Bool() {
		r.Sample = &SampleReport{
			Windows:              rd.Int(),
			WarmupInstructions:   rd.Uvarint(),
			DetailedInstructions: rd.Uvarint(),
			TotalInstructions:    rd.Uvarint(),
			Scale:                rd.F64(),
			CPIRelStdErr:         rd.F64(),
			EPIRelStdErr:         rd.F64(),
			EDPRelStdErr:         rd.F64(),
		}
	}
}

// levelMinBytes is the fewest bytes one LevelReport's layout takes: a
// one-byte Name length, four one-byte varints, the SizeTrace length
// prefix and five F64s. A Levels count is checked against it, so a
// payload of n bytes allocates at most n/levelMinBytes reports.
const levelMinBytes = 1 + 4 + 1 + 5*8

func (c *CacheReport) appendPayload(w *payload.Writer) {
	w.Uvarint(c.Accesses)
	w.F64(c.MissRatio)
	w.F64(c.AvgBytes)
	w.Int(c.FullBytes)
	w.Uvarint(c.Resizes)
	w.Uvarint(c.FlushedBlocks)
	w.Ints(c.SizeTrace)
	w.F64(c.EnergyPJ)
	w.F64(c.SwitchingPJ)
	w.F64(c.BackgroundPJ)
}

func (c *CacheReport) readPayload(rd *payload.Reader) {
	c.Accesses = rd.Uvarint()
	c.MissRatio = rd.F64()
	c.AvgBytes = rd.F64()
	c.FullBytes = rd.Int()
	c.Resizes = rd.Uvarint()
	c.FlushedBlocks = rd.Uvarint()
	c.SizeTrace = rd.Ints()
	c.EnergyPJ = rd.F64()
	c.SwitchingPJ = rd.F64()
	c.BackgroundPJ = rd.F64()
}

// encodeCheckpoint seals a checkpoint payload for the store. The BTB
// and RAS arrays are uvarints: most of their words are small, and
// fixed-width words would double the payload.
func encodeCheckpoint(p *checkpointPayload) []byte {
	var w payload.Writer
	w.Int(p.Version)
	w.Uvarint(p.Consumed)

	g := &p.Gen
	w.U64(g.RNG)
	w.Uvarint(g.Instr)
	w.Int(g.PhaseIdx)
	w.Uvarint(g.PhaseLeft)
	w.Bool(g.Exhausted)
	w.Ints(g.DCursors)
	w.Int(g.ICursor)
	w.Int(g.DConfCursor)
	w.Int(g.IConfCursor)
	w.Uvarint(g.ColdCursor)
	w.Uvarint(g.RunAddr)
	w.Int(g.RunLeft)
	w.Int(g.BrCounter)
	w.Int(g.CallDepth)

	f := &p.Front
	appendPredictor(&w, &f.Predictor)
	w.Uvarint(f.Stats.Lookups)
	w.Uvarint(f.Stats.Mispredict)
	w.Uvarints(f.BTB.Tags)
	w.Uvarints(f.BTB.Targets)
	w.Uvarints(f.BTB.LRU)
	w.Bytes(f.BTB.Valid)
	w.Uvarint(f.BTB.Clock)
	w.Uvarint(f.BTB.Lookups)
	w.Uvarint(f.BTB.Hits)
	w.Uvarints(f.RAS.Stack)
	w.Int(f.RAS.Top)
	w.Int(f.RAS.Depth)
	w.Uvarint(f.RAS.Pushes)
	w.Uvarint(f.RAS.Pops)
	w.Uvarint(f.PendingPC)
	w.Bool(f.HasPending)
	return w.Seal()
}

// decodeCheckpoint opens a stored checkpoint payload. It checks the
// layout and the format version only; whether the state fits the run
// is warmupWithCheckpoint's to check.
func decodeCheckpoint(data []byte) (checkpointPayload, error) {
	var p checkpointPayload
	rd := payload.Open(data)
	p.Version = rd.Int()
	p.Consumed = rd.Uvarint()

	g := &p.Gen
	g.RNG = rd.U64()
	g.Instr = rd.Uvarint()
	g.PhaseIdx = rd.Int()
	g.PhaseLeft = rd.Uvarint()
	g.Exhausted = rd.Bool()
	g.DCursors = rd.Ints()
	g.ICursor = rd.Int()
	g.DConfCursor = rd.Int()
	g.IConfCursor = rd.Int()
	g.ColdCursor = rd.Uvarint()
	g.RunAddr = rd.Uvarint()
	g.RunLeft = rd.Int()
	g.BrCounter = rd.Int()
	g.CallDepth = rd.Int()

	f := &p.Front
	f.Predictor = readPredictor(&rd, 0)
	f.Stats.Lookups = rd.Uvarint()
	f.Stats.Mispredict = rd.Uvarint()
	f.BTB.Tags = rd.Uvarints()
	f.BTB.Targets = rd.Uvarints()
	f.BTB.LRU = rd.Uvarints()
	f.BTB.Valid = rd.Bytes()
	f.BTB.Clock = rd.Uvarint()
	f.BTB.Lookups = rd.Uvarint()
	f.BTB.Hits = rd.Uvarint()
	f.RAS.Stack = rd.Uvarints()
	f.RAS.Top = rd.Int()
	f.RAS.Depth = rd.Int()
	f.RAS.Pushes = rd.Uvarint()
	f.RAS.Pops = rd.Uvarint()
	f.PendingPC = rd.Uvarint()
	f.HasPending = rd.Bool()

	if err := rd.Done(); err != nil {
		return p, fmt.Errorf("sim: checkpoint: %w", err)
	}
	if p.Version != checkpointFormatVersion {
		return p, fmt.Errorf("sim: checkpoint format version %d, want %d", p.Version, checkpointFormatVersion)
	}
	return p, nil
}

// appendPredictor writes a predictor state and, behind a presence
// flag each, its components.
func appendPredictor(w *payload.Writer, s *bpred.PredictorState) {
	w.Str(s.Kind)
	w.Bytes(s.Table)
	w.Uvarint(s.History)
	for _, c := range [...]*bpred.PredictorState{s.Comp1, s.Comp2} {
		w.Bool(c != nil)
		if c != nil {
			appendPredictor(w, c)
		}
	}
}

// maxPredictorNesting bounds how many levels of components a stored
// predictor state may nest. The simulator's predictors nest one level
// (a combining predictor over two leaves); without a bound a crafted
// payload would recurse once per four bytes of its length, deep enough
// to overflow the goroutine stack.
const maxPredictorNesting = 4

// readPredictor mirrors appendPredictor for a state nested depth levels
// below the front end's predictor, and fails rd past maxPredictorNesting.
func readPredictor(rd *payload.Reader, depth int) bpred.PredictorState {
	s := bpred.PredictorState{Kind: rd.Str(), Table: rd.Bytes(), History: rd.Uvarint()}
	for _, c := range [...]**bpred.PredictorState{&s.Comp1, &s.Comp2} {
		if !rd.Bool() {
			continue
		}
		if depth == maxPredictorNesting {
			rd.Fail("predictor state nests deeper than %d levels", maxPredictorNesting)
			return s
		}
		v := readPredictor(rd, depth+1)
		*c = &v
	}
	return s
}
