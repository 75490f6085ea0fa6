// Package workload synthesizes the reference streams that drive the
// simulator: one calibrated profile per SPEC95/SPEC2000 benchmark the
// paper evaluates (ammp, applu, apsi, compress, gcc, ijpeg, m88ksim,
// su2cor, swim, tomcatv, vortex, vpr).
//
// The paper's experiments are driven entirely by each benchmark's cache
// behaviour: the shape of its miss-ratio-versus-(size, associativity)
// surface, how that shape varies over time, and how much latency the
// pipeline can hide. Profiles therefore describe, per execution phase:
//
//   - a hierarchy of data working-set *levels* (blocks touched cyclically
//     with a given share of accesses) — capacity knees of the miss curve;
//   - a *conflict group* (blocks spaced 64K apart that collide in any
//     reasonable L1 indexing) whose residency requires associativity —
//     this is what makes an application "conflict-bound";
//   - the same two notions for the instruction stream; and
//   - instruction mix, dependency distances (ILP), and branch behaviour.
//
// The generator produces a deterministic instruction-by-instruction event
// stream; the caches under test then do all the real work. Nothing in the
// generator knows which cache configuration is being simulated.
package workload

// Kind classifies a generated instruction.
type Kind uint8

const (
	KindInt Kind = iota
	KindFloat
	KindLoad
	KindStore
	KindBranch
	// KindCall and KindReturn are unconditional control transfers
	// predicted via the return-address stack rather than the direction
	// predictor; the generator keeps them balanced around a bounded call
	// depth.
	KindCall
	KindReturn
)

// Event is one dynamic instruction.
type Event struct {
	PC    uint64
	Addr  uint64 // memory address for loads/stores
	Kind  Kind
	Taken bool  // branch outcome
	Dep1  int32 // distance in instructions to first producer (0 = none)
	Dep2  int32 // distance to second producer (0 = none)
	Lat   uint8 // execution latency in cycles
}

// WSLevel is one working-set level: Blocks cache blocks that receive
// Frac of the (non-cold, non-conflict) data accesses. Accesses walk the
// level cyclically (crisp capacity knee at Blocks) except that a RandFrac
// share jump uniformly within the level, which spreads reuse distances:
// a cache smaller than the level still captures part of the traffic.
// RandFrac near 1 models loosely-structured footprints (e.g. code or
// data slightly larger than the cache where each size step costs
// proportionally); RandFrac 0 models tight loop sweeps where any deficit
// misses everything.
type WSLevel struct {
	Blocks   int
	Frac     float64
	RandFrac float64
}

// ConflictSpec describes a conflict group: Ways blocks that map to the
// same set under any L1 indexing (64K stride), receiving Frac of
// accesses. Keeping them all resident requires associativity >= Ways.
type ConflictSpec struct {
	Ways int
	Frac float64
}

// Phase is one execution phase of a benchmark.
type Phase struct {
	// Instructions is the phase length.
	Instructions uint64
	// DLevels and ILevels describe data / instruction working sets.
	DLevels []WSLevel
	ILevels []WSLevel
	// DCold is the fraction of data accesses that touch fresh, never
	// reused blocks (compulsory misses).
	DCold float64
	// DConflict / IConflict add associativity-bound access streams.
	DConflict ConflictSpec
	IConflict ConflictSpec
}

// Profile is a complete benchmark description.
type Profile struct {
	Name string
	// Instruction mix (fractions of the dynamic stream).
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FloatFrac  float64
	// DepMeanDist is the mean register-dependence distance; larger means
	// more instruction-level parallelism for the out-of-order engine.
	DepMeanDist float64
	// BranchRandFrac is the fraction of branches with data-dependent
	// (unpredictable) outcomes; the rest are loop-style and biased.
	BranchRandFrac float64
	// Phases execute in order; if Periodic, the sequence repeats.
	Phases   []Phase
	Periodic bool
}

// TotalPhaseInstructions sums the phase lengths (one period).
func (p *Profile) TotalPhaseInstructions() uint64 {
	var n uint64
	for _, ph := range p.Phases {
		n += ph.Instructions
	}
	return n
}

// Generator produces the deterministic event stream for a profile.
type Generator struct {
	prof *Profile
	// r is embedded by value: every generated instruction draws from it
	// several times, and an inline field keeps the state on the
	// Generator's own cache line instead of behind a pointer.
	r rng

	instr       uint64 // instructions generated so far
	phaseIdx    int
	phaseLeft   uint64
	exhausted   bool
	dCursors    []int // per-level block cursor
	iCursor     int   // instruction-stream byte cursor within hot code
	dConfCursor int
	iConfCursor int
	coldCursor  uint64

	// current spatial run: consecutive word accesses within one block
	runAddr uint64
	runLeft int

	pcBase    uint64
	brCounter int
	callDepth int

	// Profile-constant hoists, computed once in NewGenerator: the
	// cumulative instruction-mix thresholds Next compares the kind draw
	// against (summed in the same association order the inline
	// expressions used, so every comparison sees the identical float64),
	// and the inverse mean dependence distance depDistance's geometric
	// loop tests against.
	thLoad, thStore, thBranch, thFloat float64
	invDepMean                         float64

	// Per-phase hoists, rebuilt by enterPhase: the active phase pointer
	// and, per working-set level, the effective jump probability (with
	// the 1/32 jitter floor applied) and the instruction footprint in
	// bytes and instruction slots.
	curPhase *Phase
	dJumpP   []float64 // per-DLevel reposition probability
	dBase    []uint64  // per-DLevel region base address
	iBytes   []int     // per-ILevel hot-code bytes (floored at one block)
	iSlots   []int     // iBytes / instrBytes
	iBase    []uint64  // per-ILevel region base address
}

// Address-space layout: disjoint regions so streams never alias.
const (
	codeBase     = 0x0040_0000
	codeConfBase = 0x00C0_0000
	dataBase     = 0x1000_0000
	dataConfBase = 0x2000_0000
	coldBase     = 0x3000_0000
	conflictStr  = 64 << 10 // 64K stride: same index in any L1 studied
	blockBytes   = 32
	instrBytes   = 4
)

// Generator state bounds: a spatial run touches at most maxRunLeft
// further words of its block, and calls nest at most maxCallDepth deep.
const (
	maxRunLeft   = 2
	maxCallDepth = 48
)

// NewGenerator builds the deterministic generator for a profile.
func NewGenerator(p *Profile) *Generator {
	g := &Generator{
		prof:   p,
		r:      newRNG(seedFromString(p.Name)),
		pcBase: codeBase,
	}
	g.thLoad = p.LoadFrac
	g.thStore = p.LoadFrac + p.StoreFrac
	g.thBranch = p.LoadFrac + p.StoreFrac + p.BranchFrac
	g.thFloat = p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FloatFrac
	m := p.DepMeanDist
	if m < 1 {
		m = 1
	}
	g.invDepMean = 1 / m
	g.enterPhase(0)
	return g
}

// reuse returns s resized to n elements, reusing its backing storage
// when it is large enough — enterPhase runs at every phase transition
// of a periodic profile, and the generator must stay allocation-free
// after warm-up. Contents are unspecified; callers assign every index.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

//simlint:coldpath runs at phase transitions only; reuse() keeps it allocation-free after warm-up
func (g *Generator) enterPhase(i int) {
	g.rebuildPhaseHoists(i)
	ph := g.curPhase
	g.phaseLeft = ph.Instructions
	for j := range g.dCursors {
		// Stagger cursors so levels do not walk in lockstep.
		c := 0
		if ph.DLevels[j].Blocks > 0 {
			c = g.r.intn(ph.DLevels[j].Blocks)
		}
		g.dCursors[j] = c
	}
	g.iCursor = 0
	g.runLeft = 0
}

// rebuildPhaseHoists recomputes the per-phase derived tables (jump
// probabilities, region bases, instruction footprints) for phase i. It is
// pure with respect to the RNG — Restore relies on that to re-enter a
// snapshotted phase without perturbing the random stream.
//
//simlint:coldpath runs at phase transitions and restore only
func (g *Generator) rebuildPhaseHoists(i int) {
	g.phaseIdx = i
	ph := &g.prof.Phases[i]
	g.curPhase = ph
	g.dCursors = reuse(g.dCursors, len(ph.DLevels))
	g.dJumpP = reuse(g.dJumpP, len(ph.DLevels))
	g.dBase = reuse(g.dBase, len(ph.DLevels))
	dBase := uint64(dataBase)
	for j := range ph.DLevels {
		jumpP := ph.DLevels[j].RandFrac
		if jumpP < 1.0/32 {
			jumpP = 1.0 / 32 // minimum jitter keeps knees from being cliffs
		}
		g.dJumpP[j] = jumpP
		g.dBase[j] = dBase
		dBase += uint64(ph.DLevels[j].Blocks)*blockBytes + (1 << 20) // separate regions
	}
	g.iBytes = reuse(g.iBytes, len(ph.ILevels))
	g.iSlots = reuse(g.iSlots, len(ph.ILevels))
	g.iBase = reuse(g.iBase, len(ph.ILevels))
	iBase := g.pcBase
	for j, lv := range ph.ILevels {
		bytes := lv.Blocks * blockBytes
		if bytes <= 0 {
			bytes = blockBytes
		}
		g.iBytes[j] = bytes
		g.iSlots[j] = bytes / instrBytes
		g.iBase[j] = iBase
		iBase += uint64(lv.Blocks)*blockBytes + (1 << 20) // separate regions
	}
}

func (g *Generator) phase() *Phase { return g.curPhase }

// advancePhase moves to the next phase; returns false when the workload
// is exhausted (non-periodic profile ran out of phases).
func (g *Generator) advancePhase() bool {
	next := g.phaseIdx + 1
	if next >= len(g.prof.Phases) {
		if !g.prof.Periodic {
			return false
		}
		next = 0
	}
	g.enterPhase(next)
	return true
}

// dataAddr produces the next data address according to the phase's
// working-set structure.
func (g *Generator) dataAddr() uint64 {
	// Continue an in-progress spatial run within the current block.
	if g.runLeft > 0 {
		g.runLeft--
		g.runAddr += 8
		return g.runAddr
	}
	ph := g.phase()
	x := g.r.float()

	// Cold stream.
	if x < ph.DCold {
		g.coldCursor++
		a := coldBase + g.coldCursor*blockBytes
		return a
	}
	x -= ph.DCold

	// Conflict group.
	if cf := ph.DConflict; cf.Ways > 0 && x < cf.Frac {
		g.dConfCursor = (g.dConfCursor + 1) % cf.Ways
		return dataConfBase + uint64(g.dConfCursor)*conflictStr
	}
	if cf := ph.DConflict; cf.Ways > 0 {
		x -= cf.Frac
	}

	// Working-set levels: pick by fraction, walk cyclically with a small
	// chance of repositioning (softens the LRU cliff), then start a short
	// spatial run within the block.
	for li, lv := range ph.DLevels {
		if x < lv.Frac || li == len(ph.DLevels)-1 {
			c := g.dCursors[li]
			if g.r.float() < g.dJumpP[li] {
				c = g.r.intn(lv.Blocks)
			} else {
				c++
				if c >= lv.Blocks {
					c = 0
				}
			}
			g.dCursors[li] = c
			addr := g.dBase[li] + uint64(c)*blockBytes
			// 0-2 further word touches within the block.
			g.runLeft = g.r.intn(maxRunLeft + 1)
			g.runAddr = addr
			return addr
		}
		x -= lv.Frac
	}
	return dataBase
}

// nextPC produces the next instruction address. The hot code region is
// the phase's instruction working set, walked sequentially with wrap;
// IConflict diverts a fraction of fetches to the conflict code group.
func (g *Generator) nextPC() uint64 {
	ph := g.phase()
	if cf := ph.IConflict; cf.Ways > 0 && g.r.float() < cf.Frac {
		g.iConfCursor = (g.iConfCursor + 1) % cf.Ways
		return codeConfBase + uint64(g.iConfCursor)*conflictStr
	}
	// Determine hot-code bytes from levels: treat ILevels like DLevels.
	var pc uint64
	x := g.r.float()
	for li, lv := range ph.ILevels {
		if x < lv.Frac || li == len(ph.ILevels)-1 {
			base := g.iBase[li]
			bytes := g.iBytes[li]
			if li == 0 {
				// Hot loop code: sequential walk with RandFrac-controlled
				// far jumps (calls/returns within the hot footprint).
				// iCursor stays in [0, bytes): every assignment is 0, a
				// slot index times instrBytes, or an increment followed by
				// the wrap check below — so no modulo is needed.
				if lv.RandFrac > 0 && g.r.float() < lv.RandFrac {
					g.iCursor = g.r.intn(g.iSlots[li]) * instrBytes
				}
				pc = base + uint64(g.iCursor)
				g.iCursor += instrBytes
				if g.iCursor >= bytes {
					g.iCursor = 0
				}
			} else {
				// Secondary code levels (cold functions): random entry.
				pc = base + uint64(g.r.intn(g.iSlots[li]))*instrBytes
			}
			return pc
		}
		x -= lv.Frac
	}
	g.iCursor += instrBytes
	return g.pcBase + uint64(g.iCursor)
}

// depDistance samples a register-dependence distance (geometric around
// DepMeanDist), bounded to stay inside a realistic window.
func (g *Generator) depDistance() int32 {
	d := 1
	for g.r.float() > g.invDepMean && d < 48 {
		d++
	}
	return int32(d)
}

// Next fills ev with the next instruction; it returns false when a
// non-periodic profile is exhausted.
//
//simlint:hotpath per-generated-instruction
func (g *Generator) Next(ev *Event) bool {
	if g.exhausted {
		return false
	}
	if g.phaseLeft == 0 {
		if !g.advancePhase() {
			g.exhausted = true
			return false
		}
	}
	g.phaseLeft--
	g.instr++

	p := g.prof
	x := g.r.float()
	ev.PC = g.nextPC()
	ev.Addr = 0
	ev.Taken = false
	ev.Dep1 = g.depDistance()
	ev.Dep2 = 0
	ev.Lat = 1

	switch {
	case x < g.thLoad:
		ev.Kind = KindLoad
		ev.Addr = g.dataAddr()
	case x < g.thStore:
		ev.Kind = KindStore
		ev.Addr = g.dataAddr()
		ev.Dep2 = g.depDistance()
	case x < g.thBranch:
		// ~12% of control transfers are calls and another ~12% returns,
		// kept balanced around a bounded call depth; the rest are
		// conditional branches.
		cr := g.r.float()
		switch {
		case cr < 0.12 && g.callDepth < maxCallDepth:
			ev.Kind = KindCall
			ev.Taken = true
			g.callDepth++
		case cr < 0.24 && g.callDepth > 0:
			ev.Kind = KindReturn
			ev.Taken = true
			g.callDepth--
		default:
			ev.Kind = KindBranch
			g.brCounter++
			if g.r.float() < p.BranchRandFrac {
				ev.Taken = g.r.float() < 0.5
			} else {
				// Loop-style branch: taken except at loop exits.
				ev.Taken = g.brCounter%16 != 0
			}
		}
	case x < g.thFloat:
		ev.Kind = KindFloat
		ev.Lat = 4
		ev.Dep2 = g.depDistance()
	default:
		ev.Kind = KindInt
		if g.r.float() < 0.5 {
			ev.Dep2 = g.depDistance()
		}
	}
	return true
}

// Generated returns how many instructions have been produced.
func (g *Generator) Generated() uint64 { return g.instr }

// Skip advances the stream position by n instructions without generating
// events, in O(phases crossed) instead of O(n). The sampled execution
// mode uses it to jump the gap between one window's functional warming
// and the next window (internal/sim).
//
// A skip is a deterministic state jump, not a replay: the RNG is remixed
// as a function of (state, n), the working-set cursors are re-staggered
// exactly the way enterPhase staggers them at a phase boundary (their
// positions within a cyclic walk carry no information), and the cold
// stream advances so skipped instructions still consume fresh block
// addresses. Two generators skipping at the same position therefore
// remain bit-identical, but the post-skip stream differs from the
// stepped stream — callers own that trade (see the sampling notes in
// internal/sim).
//
// Returns how many instructions were skipped; fewer than n only when a
// non-periodic profile ran out of phases.
func (g *Generator) Skip(n uint64) uint64 {
	if g.exhausted || n == 0 {
		return 0
	}
	var done uint64
	for n > 0 {
		if g.phaseLeft == 0 {
			if !g.advancePhase() {
				g.exhausted = true
				break
			}
		}
		step := min(n, g.phaseLeft)
		g.phaseLeft -= step
		g.instr += step
		// Every skipped instruction could at most touch one fresh cold
		// block; advancing by the full step keeps post-skip cold
		// addresses disjoint from anything a stepped run could have
		// touched, at the cost of some unused address space.
		g.coldCursor += step
		n -= step
		done += step
	}
	g.r.s = remix(g.r.s ^ (done * 0x9E3779B97F4A7C15))
	if !g.exhausted {
		ph := g.curPhase
		for j := range g.dCursors {
			if b := ph.DLevels[j].Blocks; b > 0 {
				g.dCursors[j] = g.r.intn(b)
			}
		}
		if len(g.iSlots) > 0 && g.iSlots[0] > 0 {
			g.iCursor = g.r.intn(g.iSlots[0]) * instrBytes
		}
	}
	g.runLeft = 0
	return done
}

// remix finalizes a skip's RNG jump (splitmix64 finalizer), guarding the
// xorshift absorbing state.
func remix(s uint64) uint64 {
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	s *= 0x94D049BB133111EB
	s ^= s >> 31
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return s
}
