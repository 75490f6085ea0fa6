package cpu

import (
	"fmt"
	"slices"

	"resizecache/internal/bpred"
	"resizecache/internal/cache"
	"resizecache/internal/workload"
)

// Gang execution: one workload pass drives N cache configurations in
// lockstep, and a single simulation is a gang of one. What makes this
// possible is that everything that steers the instruction stream is
// *functional* (depends only on the event sequence), while cache
// contents and cycle arithmetic are *timing*:
//
//   - the direction predictor, BTB, and RAS are trained with (PC, taken)
//     pairs only, so their state evolution is identical for every cache
//     configuration;
//   - fetch-group boundaries are functional too: groupLeft cycles with
//     the width and resets on redirects, and every redirect is caused by
//     a functional event (mispredict, taken transfer, BTB miss, RAS
//     underflow) — the *cycle* a redirect lands on differs per member,
//     but *that* it happens, and at which instruction, does not;
//   - consequently every Activity counter and the branch accuracy are
//     member-invariant, and the ROB/LSQ ring indices advance identically.
//
// What differs per member is exactly the timing model: fetch timestamps,
// completion/retire rings, and the cache hierarchies those timestamps
// are computed against. A Gang therefore evaluates the shared functional
// front-end once per instruction and fans the event out to N private
// timing models, turning N×(generate+front-end+timing) into
// generate+front-end+N×timing. Each member's Result is bit-identical to
// a gang of one over the same memory system (pinned by
// TestGangMatchesSolo* and the sim golden fixtures).

// window is the in-order engine's dependence-scoreboard depth.
const window = 64

// GangMember is one gang member's private memory system: the L1 caches
// its timing model issues accesses to (each backed by its own private
// hierarchy and memory).
type GangMember struct {
	IC cache.Level
	DC cache.Level
	// Snapshot saves the member's memory system for a fork; the gang
	// calls it at the start of each instruction that may reach the
	// member's armed cache (see Arm). Members that are never armed
	// leave it nil.
	Snapshot func()
}

// Gang is one timing model — out-of-order or in-order — driving every
// member's memory system from one shared functional front-end. The
// front-end survives across calls, so detailed windows (RunWindow) and
// fast-forward windows (FastForward) can alternate over one workload
// stream; pipeline timing state (ROB/LSQ rings, clocks) is per window.
//
// Members can fork mid-pass. Gang members that differ only in the
// thresholds of one cache's dynamic controller share a machine while
// their decisions agree (internal/sim). When that cache is a few
// accesses short of an interval boundary at which they may disagree —
// no more than one instruction can make — the member is armed (Arm):
// until the boundary, the gang snapshots its timing state at the start
// of each instruction that may reach that cache, and the member saves
// its memory system. Members forked from the snapshot at the boundary
// (Join) replay the instruction in the same member loop and run on
// from there.
type Gang struct {
	cfg     Config
	inOrder bool
	front   frontEnd
	members []GangMember

	// The per-member timing state of the window in progress, kept here
	// so that Join can extend it: the running engine's arrays, and
	// lanes, which lists them with their per-member widths.
	ooo   oooTiming
	ino   inOrderTiming
	lanes []lane

	// arms are the armed members, waiting for their boundary or inside
	// the instruction that reached it. The engines test for them once
	// per instruction.
	arms []arm
}

// oooTiming is the out-of-order engine's per-member timing state,
// struct-of-arrays: member m's ROB ring is rob[m*robN : (m+1)*robN],
// and the scalar clocks live in parallel slices so the member loop
// walks contiguous memory.
type oooTiming struct {
	rob, retire, lsqRetire               []uint64
	fetchTime, lastRetire, retireInCycle []uint64
}

// inOrderTiming is the in-order engine's per-member timing state:
// member m's scoreboard of recent completion times is
// completed[m*window : (m+1)*window].
type inOrderTiming struct {
	completed                                       []uint64
	fetchTime, issueTime, issueInCycle, maxComplete []uint64
}

// lane is one per-member timing array and the words it holds per
// member.
type lane struct {
	s *[]uint64
	w int
}

// arm is one armed member: an access of m's to the cache at level (see
// Arm) may fork it. While the instruction in progress may reach that
// cache, taken is set and snap holds m's timing state from before it,
// lane after lane; done marks an arm whose boundary has passed, kept
// to the end of the instruction for members forking from it.
type arm struct {
	m     int
	level int
	taken bool
	done  bool
	snap  []uint64
}

// NewGangOutOfOrder builds the 4-wide out-of-order engine with a
// non-blocking d-cache over members. Instruction timing follows the
// dataflow model: an instruction issues when its producers complete and
// resources (ROB slot, LSQ slot) are available; independent d-misses
// overlap up to the d-cache's MSHR capacity; retirement is in order and
// width-limited. The members' d-caches should have MSHRs.
func NewGangOutOfOrder(cfg Config, bp bpred.Predictor, members []GangMember) (*Gang, error) {
	return newGang(cfg, false, bp, members)
}

// NewGangInOrder builds the in-order issue engine with a blocking
// d-cache over members: an instruction issues only after all older
// instructions have issued and its producers have completed, and a
// d-cache miss stalls the pipeline for its full latency (the d-caches
// should have no MSHRs). This engine exposes d-miss latency directly to
// execution time, the regime in which the paper finds dynamic resizing
// clearly superior.
func NewGangInOrder(cfg Config, bp bpred.Predictor, members []GangMember) (*Gang, error) {
	return newGang(cfg, true, bp, members)
}

// NewOutOfOrder builds a one-member out-of-order engine over ic and dc.
// Only tests and the benchmark harness call it and NewInOrder; both go
// with the next benchmark change.
func NewOutOfOrder(cfg Config, ic, dc cache.Level, bp bpred.Predictor) (*Gang, error) {
	return NewGangOutOfOrder(cfg, bp, []GangMember{{IC: ic, DC: dc}})
}

// NewInOrder builds a one-member in-order engine over ic and dc.
func NewInOrder(cfg Config, ic, dc cache.Level, bp bpred.Predictor) (*Gang, error) {
	return NewGangInOrder(cfg, bp, []GangMember{{IC: ic, DC: dc}})
}

func newGang(cfg Config, inOrder bool, bp bpred.Predictor, members []GangMember) (*Gang, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Gang{cfg: cfg, inOrder: inOrder, front: newFrontEnd(bp, cfg.Width), members: members}
	if inOrder {
		t := &g.ino
		g.lanes = []lane{{&t.completed, window}, {&t.fetchTime, 1}, {&t.issueTime, 1},
			{&t.issueInCycle, 1}, {&t.maxComplete, 1}}
	} else {
		t := &g.ooo
		g.lanes = []lane{{&t.rob, cfg.ROBEntries}, {&t.retire, cfg.ROBEntries},
			{&t.lsqRetire, cfg.LSQEntries}, {&t.fetchTime, 1}, {&t.lastRetire, 1}, {&t.retireInCycle, 1}}
	}
	return g, nil
}

// startWindow empties every member's timing state for a new window and
// starts the given clocks at base (cycle zero when base is nil).
//
//simlint:coldpath once per window
func (g *Gang) startWindow(base []uint64, clocks ...*[]uint64) {
	n := len(g.members)
	for _, l := range g.lanes {
		s := *l.s
		if cap(s) < n*l.w {
			s = make([]uint64, n*l.w)
		}
		s = s[:n*l.w]
		clear(s)
		*l.s = s
	}
	if base != nil {
		for _, c := range clocks {
			copy(*c, base)
		}
	}
}

// Arm has the gang snapshot member m before each instruction that may
// access m's cache at level — 0 its d-cache, 1 its i-cache, 1+n the
// shared level n levels below them — until Disarm: it saves m's timing
// state and calls m's Snapshot. While such an instruction runs, members
// forked from the snapshot may Join.
func (g *Gang) Arm(m, level int) {
	g.arms = append(g.arms, arm{m: m, level: level})
}

// Disarm ends member m's arm at its boundary, which the instruction in
// progress reached; members may still Join from its snapshot until the
// instruction ends.
func (g *Gang) Disarm(m int) {
	for i := range g.arms {
		if a := &g.arms[i]; a.m == m && !a.done {
			a.done = true
			return
		}
	}
}

// snapshotArmed runs before an instruction's member loop while members
// are armed. It retires the arms whose boundary has passed, and takes
// the snapshot of each armed member that the instruction may reach the
// armed cache of (reaches). It then reserves room for the members that
// may fork from the snapshots, so that Join never moves the arrays the
// member loop is working in.
//
//simlint:coldpath runs only while a member is armed: a few instructions per policy interval
func (g *Gang) snapshotArmed(newGroup, isMem bool, ev *workload.Event) {
	kept := g.arms[:0]
	taken := 0
	for _, a := range g.arms {
		if a.done {
			continue
		}
		a.taken = g.reaches(a, newGroup, isMem, ev)
		if a.taken {
			a.snap = a.snap[:0]
			for _, l := range g.lanes {
				a.snap = append(a.snap, (*l.s)[a.m*l.w:(a.m+1)*l.w]...)
			}
			g.members[a.m].Snapshot()
			taken++
		}
		kept = append(kept, a)
	}
	clear(g.arms[len(kept):])
	g.arms = kept
	if taken > 0 {
		// A boundary offers the leader's target and at most two others
		// (one step up or down, or staying), so each snapshot forks at
		// most two members.
		g.members = slices.Grow(g.members, 2*taken)
		for _, l := range g.lanes {
			*l.s = slices.Grow(*l.s, 2*taken*l.w)
		}
	}
}

// reaches reports whether the instruction ev, which opens a fetch group
// when newGroup and is a memop when isMem, may access a's cache. An L1
// sees at most the one access of its side. A shared level sees only
// L1 misses, which the L1s' tags decide without a change of state: a
// member armed at a shared level has cache.Reacher L1s.
//
//simlint:coldpath runs only while a member is armed
func (g *Gang) reaches(a arm, newGroup, isMem bool, ev *workload.Event) bool {
	switch a.level {
	case 0:
		return isMem
	case 1:
		return newGroup
	}
	gm, depth := &g.members[a.m], a.level-1
	return newGroup && gm.IC.(cache.Reacher).Reaches(ev.PC, depth) ||
		isMem && gm.DC.(cache.Reacher).Reaches(ev.Addr, depth)
}

// takenArm returns the arm of member m whose instruction is in
// progress, or nil.
func (g *Gang) takenArm(m int) *arm {
	for i := range g.arms {
		if a := &g.arms[i]; a.m == m && a.taken {
			return a
		}
	}
	return nil
}

// Forking reports whether an instruction that member m's arm took a
// snapshot before is in progress, so that members forked from the
// snapshot may Join.
func (g *Gang) Forking(m int) bool { return g.takenArm(m) != nil }

// Join adds a member forked from member parent while an instruction
// parent's arm took a snapshot before is in progress (Forking). The new
// member's memory system must be a copy of parent's from that
// instruction's start; its timing
// state is parent's from the same point. The member loop reaches it
// after every member before it and runs the instruction for it, so it
// replays the instruction and runs on from there. Join returns its
// index.
func (g *Gang) Join(parent int, gm GangMember) int {
	a := g.takenArm(parent)
	if a == nil {
		panic(fmt.Sprintf("cpu: member %d joins from member %d, which has no snapshot of the instruction in progress", len(g.members), parent))
	}
	// Appending past the room snapshotArmed reserved would move arrays
	// the member loop is writing through.
	full := len(g.members) == cap(g.members)
	for _, l := range g.lanes {
		full = full || cap(*l.s)-len(*l.s) < l.w
	}
	if full {
		panic(fmt.Sprintf("cpu: more than two members fork from member %d at one instruction", parent))
	}
	m := len(g.members)
	g.members = append(g.members, gm)
	off := 0
	for _, l := range g.lanes {
		*l.s = append(*l.s, a.snap[off:off+l.w]...)
		off += l.w
	}
	return m
}

// Run executes up to maxInstr instructions (or until the source is
// exhausted) from cycle zero and returns member 0's Result: the whole
// outcome of a one-member engine.
func (g *Gang) Run(src workload.Source, maxInstr uint64) Result {
	return g.RunWindow(src, maxInstr, nil)[0]
}

// RunWindow executes up to maxInstr instructions with member m's
// pipeline clocks starting at absolute cycle base[m] (a nil base means
// cycle zero for every member); result[m].Cycles is member m's absolute
// end cycle. The sampled execution mode chains detailed windows by
// passing each window's end cycles as the next base, so cache state —
// which carries absolute-cycle timestamps — stays consistent across
// windows. Pipeline rings start empty each window; only the shared
// front-end persists.
//
//simlint:hotpath dispatch to the engine's per-instruction loop
func (g *Gang) RunWindow(src workload.Source, maxInstr uint64, base []uint64) []Result {
	if g.inOrder {
		return g.runInOrder(src, maxInstr, base)
	}
	return g.runOutOfOrder(src, maxInstr, base)
}

// ctrlAction is the shared functional outcome of one instruction's
// control-flow handling; members apply its timing consequence to their
// own fetch clock.
type ctrlAction int

const (
	// ctrlNone: no control transfer, fetch continues.
	ctrlNone ctrlAction = iota
	// ctrlRedirect: fetch restarts at the current fetch time (correctly
	// predicted taken transfer with a BTB/RAS hit) — a fetch-group break
	// with no bubble.
	ctrlRedirect
	// ctrlRedirectBTBMiss: fetch restarts after the BTB-miss bubble.
	ctrlRedirectBTBMiss
	// ctrlRedirectMispredict: fetch restarts after the instruction
	// completes plus the mispredict penalty.
	ctrlRedirectMispredict
)

// frontEnd is a gang's shared functional front-end: the direction
// predictor, the branch target buffer (a correctly-predicted taken
// branch still bubbles if its target is absent from the BTB), the
// return-address stack for call/return pairs, and the fetch-group
// cursor. Both engines use it, so their i-side behaviour is identical by
// construction and the strategy comparisons differ only in the d-side
// latency exposure.
type frontEnd struct {
	bp  *bpred.Stats
	btb *bpred.BTB
	ras *bpred.RAS

	btbMissPenalty uint64

	pendingPC  uint64 // taken control transfer awaiting its target
	hasPending bool

	groupLeft int
	width     int
}

//simlint:coldpath constructor, once per gang
func newFrontEnd(bp bpred.Predictor, width int) frontEnd {
	return frontEnd{
		bp:             &bpred.Stats{P: bp},
		btb:            bpred.NewBTB(9, 4), // 512-set 4-way
		ras:            bpred.NewRAS(8),
		btbMissPenalty: 2,
		width:          width,
	}
}

// step consumes one instruction's functional front-end work: the
// deferred BTB update of the previous taken transfer (whose target is
// this instruction), the fetch-group boundary decision, and the
// control-flow outcome. It returns whether this instruction opens a new
// fetch group and the shared control action. act receives every
// member-invariant counter of the instruction's control handling.
func (f *frontEnd) step(ev *workload.Event, act *Activity) (newGroup bool, action ctrlAction) {
	if f.hasPending {
		f.btb.Update(f.pendingPC, ev.PC)
		f.hasPending = false
	}
	if f.groupLeft == 0 {
		f.groupLeft = f.width
		act.FetchGroups++
		newGroup = true
	}
	f.groupLeft--

	switch ev.Kind {
	case workload.KindBranch:
		act.Branches++
		act.BpredLookups++
		if !f.bp.PredictAndTrain(ev.PC, ev.Taken) {
			act.Mispredicts++
			action = ctrlRedirectMispredict
		} else if ev.Taken {
			action = f.lookupTarget(ev.PC, act)
		}
	case workload.KindCall:
		act.RASOps++
		f.ras.Push(ev.PC + 4)
		action = f.lookupTarget(ev.PC, act)
	case workload.KindReturn:
		// An underflowed stack is a target mispredict.
		act.RASOps++
		if _, ok := f.ras.Pop(); ok {
			action = ctrlRedirect
		} else {
			act.Mispredicts++
			action = ctrlRedirectMispredict
		}
	}
	if action != ctrlNone {
		// The redirect breaks the fetch group for the next instruction;
		// members apply the cycle consequence themselves.
		f.groupLeft = 0
	}
	return newGroup, action
}

// lookupTarget models target prediction for a taken transfer at pc: a
// BTB hit redirects fetch with no bubble; a miss costs btbMissPenalty
// and schedules the entry's installation.
func (f *frontEnd) lookupTarget(pc uint64, act *Activity) ctrlAction {
	act.BTBLookups++
	if _, hit := f.btb.Lookup(pc); hit {
		return ctrlRedirect
	}
	f.pendingPC = pc
	f.hasPending = true
	return ctrlRedirectBTBMiss
}

// results assembles the per-member Results: the shared functional
// outcome (instructions, activity, branch accuracy) plus each member's
// private cycle count.
//
//simlint:coldpath epilogue, once per window
func (g *Gang) results(instr uint64, act Activity, cycles []uint64) []Result {
	accuracy := g.front.bp.Accuracy()
	out := make([]Result, len(cycles))
	for m := range out {
		out[m] = Result{
			Instructions:   instr,
			Cycles:         cycles[m],
			Activity:       act,
			BranchAccuracy: accuracy,
		}
	}
	return out
}

// runOutOfOrder is RunWindow for the out-of-order engine.
//
//simlint:hotpath the gang fan-out inner loop; prologue allocations are once per window
func (g *Gang) runOutOfOrder(src workload.Source, maxInstr uint64, base []uint64) []Result {
	cfg := g.cfg
	front := &g.front
	front.groupLeft = 0
	t := &g.ooo
	g.startWindow(base, &t.fetchTime, &t.lastRetire)
	var (
		act   Activity
		instr uint64
		ev    workload.Event

		robN      = cfg.ROBEntries
		lsqN      = cfg.LSQEntries
		decodeLat = cfg.DecodeLatency
		width     = uint64(cfg.Width)

		// Shared functional ring cursors (identical across members).
		// robIdx == i % robN and lsqIdx == memopCount % lsqN throughout.
		robIdx     int
		lsqIdx     int
		memopCount uint64

		// The member loop works on local copies of the member list and
		// the timing arrays; only an instruction with armed members can
		// change them.
		members                              = g.members
		rob, retire, lsqRetire               = t.rob, t.retire, t.lsqRetire
		fetchTime, lastRetire, retireInCycle = t.fetchTime, t.lastRetire, t.retireInCycle
	)

	for instr < maxInstr && src.Next(&ev) {
		i := instr
		instr++

		newGroup, action := front.step(&ev, &act)

		// Shared functional decisions of the issue path: which operands
		// are in the dependence window (producers older than the ROB
		// window have necessarily retired), and whether the LSQ ring
		// clamps.
		act.ROBInserts++
		dep1 := ev.Dep1 > 0 && uint64(ev.Dep1) <= i && ev.Dep1 <= int32(robN)
		dep2 := ev.Dep2 > 0 && uint64(ev.Dep2) <= i && ev.Dep2 <= int32(robN)
		if dep1 {
			act.RegReads++
		}
		if dep2 {
			act.RegReads++
		}
		isStore := ev.Kind == workload.KindStore
		isMem := isStore || ev.Kind == workload.KindLoad
		lsqClamp := isMem && memopCount >= uint64(lsqN)
		// execLat is the non-memory execution latency (control transfers
		// resolve in one cycle; loads/stores go through the d-cache).
		var execLat uint64
		switch ev.Kind {
		case workload.KindLoad:
			act.LSQInserts++
			act.Loads++
			act.RegWrites++
		case workload.KindStore:
			act.LSQInserts++
			act.Stores++
		case workload.KindBranch:
			execLat = uint64(ev.Lat)
		case workload.KindCall, workload.KindReturn:
			execLat = 1
		case workload.KindFloat:
			act.FloatOps++
			act.RegWrites++
			execLat = uint64(ev.Lat)
		default:
			act.IntOps++
			act.RegWrites++
			execLat = uint64(ev.Lat)
		}

		armed := len(g.arms) != 0
		if armed {
			g.snapshotArmed(newGroup, isMem, &ev)
		}
		for lo := 0; ; lo = len(members) {
			if armed {
				// snapshotArmed and Join may move or extend the arrays.
				members = g.members
				rob, retire, lsqRetire = t.rob, t.retire, t.lsqRetire
				fetchTime, lastRetire, retireInCycle = t.fetchTime, t.lastRetire, t.retireInCycle
			}
			for m := lo; m < len(members); m++ {
				// Fetch: one i-cache access per fetch group; an i-miss stalls
				// fetch for its full latency.
				ft := fetchTime[m]
				if newGroup {
					ft++
					if done := members[m].IC.Access(ft, ev.PC, false); done > ft+1 {
						ft = done
					}
				}

				// Dispatch: needs decode plus a free ROB entry (the
				// instruction ROBEntries back must have retired).
				dispatch := ft + decodeLat
				mrob := rob[m*robN : (m+1)*robN]
				mretire := retire[m*robN : (m+1)*robN]
				if i >= uint64(robN) {
					if r := mretire[robIdx]; r > dispatch {
						dispatch = r
					}
				}

				// Issue: producers must have completed.
				ready := dispatch
				if dep1 {
					j := robIdx - int(ev.Dep1)
					if j < 0 {
						j += robN
					}
					if r := mrob[j]; r > ready {
						ready = r
					}
				}
				if dep2 {
					j := robIdx - int(ev.Dep2)
					if j < 0 {
						j += robN
					}
					if r := mrob[j]; r > ready {
						ready = r
					}
				}

				var complete uint64
				if isMem {
					// LSQ slot: the memop LSQEntries back must have retired.
					if lsqClamp {
						if r := lsqRetire[m*lsqN+lsqIdx]; r > ready {
							ready = r
						}
					}
					done := members[m].DC.Access(ready, ev.Addr, isStore)
					if isStore {
						// Stores retire from the store buffer: their miss
						// latency is not on the dependence path, but the access
						// still occupies MSHR/writeback resources.
						complete = ready + 1
					} else {
						complete = done
					}
				} else {
					complete = ready + execLat
				}

				switch action {
				case ctrlRedirectBTBMiss:
					// fetchTime + penalty > fetchTime always.
					ft += front.btbMissPenalty
				case ctrlRedirectMispredict:
					if at := complete + cfg.MispredictPenalty; at > ft {
						ft = at
					}
				}
				fetchTime[m] = ft

				mrob[robIdx] = complete

				// In-order, width-limited retirement.
				rt := complete
				if rt < lastRetire[m] {
					rt = lastRetire[m]
				}
				if rt == lastRetire[m] {
					retireInCycle[m]++
					if retireInCycle[m] >= width {
						rt++
						retireInCycle[m] = 0
					}
				} else {
					retireInCycle[m] = 1
				}
				lastRetire[m] = rt
				mretire[robIdx] = rt
				if isMem {
					lsqRetire[m*lsqN+lsqIdx] = rt
				}
			}
			// Members forked during the loop (Join) joined its end: run
			// this instruction for them too, from their snapshots.
			if !armed || len(members) == len(g.members) {
				break
			}
		}

		if robIdx++; robIdx == robN {
			robIdx = 0
		}
		if isMem {
			memopCount++
			if lsqIdx++; lsqIdx == lsqN {
				lsqIdx = 0
			}
		}
	}

	for m := range t.lastRetire {
		t.lastRetire[m]++
	}
	return g.results(instr, act, t.lastRetire)
}

// runInOrder is RunWindow for the in-order engine.
//
//simlint:hotpath the gang fan-out inner loop; prologue allocations are once per window
func (g *Gang) runInOrder(src workload.Source, maxInstr uint64, base []uint64) []Result {
	cfg := g.cfg
	front := &g.front
	front.groupLeft = 0
	t := &g.ino
	g.startWindow(base, &t.fetchTime, &t.issueTime, &t.maxComplete)
	width := uint64(cfg.Width)
	var (
		act   Activity
		instr uint64
		ev    workload.Event

		// The member loop works on local copies of the member list and
		// the timing arrays; only an instruction with armed members can
		// change them.
		members, completed                              = g.members, t.completed
		fetchTime, issueTime, issueInCycle, maxComplete = t.fetchTime, t.issueTime, t.issueInCycle, t.maxComplete
	)

	for instr < maxInstr && src.Next(&ev) {
		i := instr
		instr++

		newGroup, action := front.step(&ev, &act)

		dep1 := ev.Dep1 > 0 && uint64(ev.Dep1) <= i && int(ev.Dep1) <= window
		dep2 := ev.Dep2 > 0 && uint64(ev.Dep2) <= i && int(ev.Dep2) <= window
		if dep1 {
			act.RegReads++
		}
		if dep2 {
			act.RegReads++
		}
		isStore := ev.Kind == workload.KindStore
		isMem := isStore || ev.Kind == workload.KindLoad
		var execLat uint64
		switch ev.Kind {
		case workload.KindLoad:
			act.Loads++
			act.RegWrites++
		case workload.KindStore:
			act.Stores++
		case workload.KindBranch:
			execLat = uint64(ev.Lat)
		case workload.KindCall, workload.KindReturn:
			execLat = 1
		case workload.KindFloat:
			act.FloatOps++
			act.RegWrites++
			execLat = uint64(ev.Lat)
		default:
			act.IntOps++
			act.RegWrites++
			execLat = uint64(ev.Lat)
		}

		armed := len(g.arms) != 0
		if armed {
			g.snapshotArmed(newGroup, isMem, &ev)
		}
		for lo := 0; ; lo = len(members) {
			if armed {
				// snapshotArmed and Join may move or extend the arrays.
				members, completed = g.members, t.completed
				fetchTime, issueTime, issueInCycle, maxComplete = t.fetchTime, t.issueTime, t.issueInCycle, t.maxComplete
			}
			for m := lo; m < len(members); m++ {
				ft := fetchTime[m]
				if newGroup {
					ft++
					if done := members[m].IC.Access(ft, ev.PC, false); done > ft+1 {
						ft = done
					}
				}

				// In order: no issue before the previous instruction, and at
				// most width issues per cycle.
				issue := ft + cfg.DecodeLatency
				if issue < issueTime[m] {
					issue = issueTime[m]
				}
				if issue == issueTime[m] {
					issueInCycle[m]++
					if issueInCycle[m] >= width {
						issue++
						issueInCycle[m] = 0
					}
				} else {
					issueInCycle[m] = 1
				}

				// Dependence stalls: producers must complete before issue.
				sb := completed[m*window : (m+1)*window]
				if dep1 {
					if r := sb[(i-uint64(ev.Dep1))%uint64(window)]; r > issue {
						issue = r
					}
				}
				if dep2 {
					if r := sb[(i-uint64(ev.Dep2))%uint64(window)]; r > issue {
						issue = r
					}
				}

				var complete uint64
				if isMem {
					complete = members[m].DC.Access(issue, ev.Addr, isStore)
					// Blocking d-cache: nothing issues until the access
					// completes.
					if complete > issue+1 {
						issue = complete - 1
					}
				} else {
					complete = issue + execLat
				}

				switch action {
				case ctrlRedirectBTBMiss:
					ft += front.btbMissPenalty
				case ctrlRedirectMispredict:
					if at := complete + cfg.MispredictPenalty; at > ft {
						ft = at
					}
				}
				fetchTime[m] = ft

				sb[i%uint64(window)] = complete
				issueTime[m] = issue
				if complete > maxComplete[m] {
					maxComplete[m] = complete
				}
			}
			// Members forked during the loop (Join) joined its end: run
			// this instruction for them too, from their snapshots.
			if !armed || len(members) == len(g.members) {
				break
			}
		}
	}

	for m := range t.maxComplete {
		t.maxComplete[m]++
	}
	return g.results(instr, act, t.maxComplete)
}
