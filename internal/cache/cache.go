package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"resizecache/internal/geometry"
	"resizecache/internal/stats"
)

// Line is one cache block frame.
type Line struct {
	BlockAddr uint64 // full block address (addr >> offsetBits)
	Valid     bool
	Dirty     bool
	lastUse   uint64 // LRU timestamp
}

// Stats aggregates per-cache event counts.
type Stats struct {
	Accesses      stats.Counter
	Hits          stats.Counter
	Misses        stats.Counter
	Fills         stats.Counter
	Writebacks    stats.Counter
	FlushedBlocks stats.Counter
	FlushedDirty  stats.Counter
	Resizes       stats.Counter
	MSHRCoalesced stats.Counter
	MSHRStalls    stats.Counter
}

// MissRatio returns misses/accesses.
func (s *Stats) MissRatio() float64 { return s.Misses.Ratio(&s.Accesses) }

// Config parameterizes a cache level.
type Config struct {
	Name       string
	Geom       geometry.Geometry
	HitLatency uint64
	AddrBits   int
	Energy     geometry.EnergyModel

	// ProvisionTagForMinSets, when nonzero, sizes the tag array for a
	// configuration with this many sets (the smallest offered size).
	// Selective-sets and hybrid caches must set this: smaller
	// configurations need more tag bits, so every access compares the
	// wider provisioned tag (paper §2.1). Zero means a conventional tag
	// array sized for the full geometry.
	ProvisionTagForMinSets int

	// MSHREntries > 0 makes the cache non-blocking with that many miss
	// registers; 0 models a blocking cache.
	MSHREntries int
	// WritebackEntries sizes the writeback buffer; 0 disables buffering
	// (victim writebacks serialize with the miss).
	WritebackEntries int

	// DelayedPrecharge models a lower level (e.g. L2) that precharges
	// only the accessed subarrays, trading access time for energy
	// (paper §3). L1s use all-subarray precharge.
	DelayedPrecharge bool

	// AblationFullPrecharge charges every access (and every idle cycle)
	// as if all subarrays were enabled, regardless of resizing masks —
	// removing the entire energy benefit of resizing. Used by the
	// ablation benchmarks to isolate the enabled-subarray accounting.
	AblationFullPrecharge bool

	// AblationFreeFlush performs resize flushes for correctness but
	// charges no array energy and sends no writeback traffic for them —
	// isolating the cost of the organizations' flush semantics.
	AblationFreeFlush bool
}

// Cache is a set-associative writeback cache with subarray masking.
// The array is allocated at the full configured geometry; the effective
// configuration (enabled sets and ways) may be lowered and raised by the
// resizable organizations in internal/core via SetEnabled.
type Cache struct {
	cfg     Config
	next    Level
	lines   []Line // maxSets*maxWays frames, way-major within each set
	maxSets int
	maxWays int

	effSets int // enabled sets (power of two)
	effWays int // enabled ways

	useClock uint64
	mshr     *mshrFile
	wb       *writebackBuffer

	Stat Stats

	energyPJ      float64 // switching (per-access) energy
	idlePJ        float64 // background energy: clock tree + leakage
	lastIdleCycle uint64
	finalized     bool

	// Derived hot-path state, refreshed by refreshDerived at construction
	// and at the end of SetEnabled — the only points where the effective
	// configuration changes. Access/fetchAndFill/writebackVictim read
	// these instead of re-deriving geometry and energy per access.
	offBits       uint                    // block-offset shift
	setMask       uint64                  // effSets - 1
	accessPJ      [numAccessKinds]float64 // switching energy per AccessKind
	idleCyclePJ   float64                 // clock+leakage per cycle
	enabledBytesF float64                 // float64(EnabledBytes())

	// size×time integral for average-enabled-size reporting
	sizeIntegral   float64
	totalSizeSpanC uint64
}

// New builds a cache level in its full-size configuration.
func New(cfg Config, next Level) (*Cache, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, fmt.Errorf("cache %s: %w", cfg.Name, err)
	}
	if cfg.AddrBits <= 0 {
		cfg.AddrBits = 40
	}
	if next == nil {
		return nil, fmt.Errorf("cache %s: next level required", cfg.Name)
	}
	c := &Cache{
		cfg:     cfg,
		next:    next,
		maxSets: cfg.Geom.Sets(),
		maxWays: cfg.Geom.Assoc,
	}
	c.lines = newLines(c.maxSets * c.maxWays)
	c.effSets = c.maxSets
	c.effWays = c.maxWays
	c.refreshDerived()
	if cfg.MSHREntries > 0 {
		c.mshr = newMSHRFile(cfg.MSHREntries)
	}
	if cfg.WritebackEntries > 0 {
		c.wb = newWritebackBuffer(cfg.WritebackEntries)
	}
	return c, nil
}

// linePools recycles frame arrays between caches: pool i holds arrays of
// exactly 1<<i lines. A sweep builds thousands of short-lived caches of
// a few sizes, and the shared L2's array alone is ~200 KB.
var linePools [bits.UintSize]sync.Pool

// newLines returns n invalid frames, reusing a released array of the
// same length when one is pooled.
func newLines(n int) []Line {
	if n > 0 && n&(n-1) == 0 {
		if p, ok := linePools[bits.TrailingZeros(uint(n))].Get().(*[]Line); ok {
			lines := *p
			clear(lines)
			return lines
		}
	}
	return make([]Line, n)
}

// Release returns the cache's frame array for reuse by a later New. The
// cache must not be accessed afterwards; its statistics and energy
// figures stay readable. Arrays whose length is not a power of two (an
// associativity that is not one) are left to the garbage collector.
func (c *Cache) Release() {
	lines := c.lines
	c.lines = nil
	if n := len(lines); n > 0 && n&(n-1) == 0 {
		linePools[bits.TrailingZeros(uint(n))].Put(&lines)
	}
}

// CopyFrom makes c's state a copy of src's: the frames, the effective
// configuration, the MSHRs and writeback buffer, the statistics and the
// energy and size integrals. c must have been built from the same
// Config as src; it keeps its own next level and its own buffers, so
// copying every level of a hierarchy into one built from the same
// configs copies the whole memory system. Gang forks use it to snapshot
// a machine (internal/sim).
//
//simlint:coldpath gang forks copy a machine a few times per interval
func (c *Cache) CopyFrom(src *Cache) {
	next, lines, mshr, wb := c.next, c.lines, c.mshr, c.wb
	*c = *src
	c.next, c.lines, c.mshr, c.wb = next, lines, mshr, wb
	copy(c.lines, src.lines)
	if mshr != nil {
		copy(mshr.blocks, src.mshr.blocks)
		copy(mshr.readyAt, src.mshr.readyAt)
		mshr.maxReady = src.mshr.maxReady
	}
	if wb != nil {
		copy(wb.drainAt, src.wb.drainAt)
		wb.pending = src.wb.pending
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// EffSets returns the number of currently enabled sets.
func (c *Cache) EffSets() int { return c.effSets }

// EffWays returns the number of currently enabled ways.
func (c *Cache) EffWays() int { return c.effWays }

// EnabledBytes returns the currently enabled data capacity.
func (c *Cache) EnabledBytes() int {
	return c.effSets * c.effWays * c.cfg.Geom.BlockBytes
}

func (c *Cache) offsetBits() int { return c.cfg.Geom.OffsetBits() }

func (c *Cache) blockAddr(addr uint64) uint64 { return addr >> c.offBits }

func (c *Cache) setIndex(block uint64) int { return int(block & c.setMask) }

// setLines returns the line frames of one set (all maxWays of them; the
// callers bound their scans by effWays).
func (c *Cache) setLines(set int) []Line {
	base := set * c.maxWays
	return c.lines[base : base+c.maxWays]
}

// enabledDataSubarrays returns the number of powered data subarrays under
// the current mask: each enabled way contributes subarrays proportional
// to the enabled-set fraction.
func (c *Cache) enabledDataSubarrays() int {
	per := c.cfg.Geom.SubarraysPerWay() * c.effSets / c.maxSets
	if per < 1 {
		per = 1
	}
	return per * c.effWays
}

// tagSubarrays approximates the tag array as one-eighth of the data area,
// with a floor of one subarray per enabled way.
func (c *Cache) enabledTagSubarrays() int {
	t := c.enabledDataSubarrays() / 8
	if t < c.effWays {
		t = c.effWays
	}
	return t
}

// fullTagSubarrays is the tag subarray count with everything enabled.
func (c *Cache) fullTagSubarrays() int {
	t := c.cfg.Geom.SubarraysPerWay() * c.maxWays / 8
	if t < c.maxWays {
		t = c.maxWays
	}
	return t
}

// comparedTagBits returns the tag width compared on each lookup. With a
// provisioned (selective-sets) tag array, the full provisioned width is
// read and compared regardless of the current size.
func (c *Cache) comparedTagBits() int {
	sets := c.effSets
	if c.cfg.ProvisionTagForMinSets > 0 {
		sets = c.cfg.ProvisionTagForMinSets
	}
	idx := 0
	for s := sets; s > 1; s >>= 1 {
		idx++
	}
	t := c.cfg.AddrBits - idx - c.offsetBits()
	if t < 0 {
		t = 0
	}
	return t
}

// accessProfile builds the energy-attribution profile for one access
// kind under the current effective configuration. It is evaluated only
// by refreshDerived; the per-access path indexes the resulting table.
func (c *Cache) accessProfile(kind AccessKind) geometry.AccessProfile {
	g := c.cfg.Geom
	rowBits := g.BlockBytes * 8
	p := geometry.AccessProfile{
		EnabledDataSubarrays: c.enabledDataSubarrays(),
		EnabledTagSubarrays:  c.enabledTagSubarrays(),
		TagBits:              c.comparedTagBits(),
		BlockBits:            rowBits,
		RowBits:              rowBits,
		TagRowBits:           c.comparedTagBits() + 8, // tag + valid/dirty/LRU state
	}
	if c.cfg.AblationFullPrecharge {
		// All subarrays precharge regardless of resizing masks.
		p.EnabledDataSubarrays = c.cfg.Geom.SubarraysPerWay() * c.maxWays
		p.EnabledTagSubarrays = c.fullTagSubarrays()
	}
	switch kind {
	case KindLookup:
		p.AccessedWays = c.effWays
	case KindStoreLookup:
		// Tag compare in every enabled way, no data-row sensing, one
		// 64-bit word driven into the selected way.
		p.AccessedWays = c.effWays
		p.BlockBits = 0
		p.WriteThroughBits = 64
	case KindFill:
		p.AccessedWays = 0
		p.WriteThroughBits = rowBits
	case KindWritebackRead, KindFlushRead:
		p.AccessedWays = 1
	}
	if c.cfg.DelayedPrecharge {
		// Only the accessed subarrays precharge: one per accessed way,
		// plus one tag subarray per way probed.
		ways := p.AccessedWays
		if ways == 0 {
			ways = 1
		}
		p.EnabledDataSubarrays = ways
		p.EnabledTagSubarrays = ways
	}
	return p
}

// refreshDerived recomputes every pure function of the effective
// configuration the per-access path depends on: the per-kind switching
// energy table, the idle-cycle energy rate, the enabled-capacity weight
// for the size-time integral, and the address-decomposition constants.
// Every entry is the exact value the per-access path used to compute
// inline, so accumulating from the table is bit-identical — the
// refactor moves when the arithmetic happens, never what is computed.
func (c *Cache) refreshDerived() {
	c.offBits = uint(c.cfg.Geom.OffsetBits())
	c.setMask = uint64(c.effSets - 1)

	var profiles [numAccessKinds]geometry.AccessProfile
	for k := range profiles {
		profiles[k] = c.accessProfile(AccessKind(k))
	}
	copy(c.accessPJ[:], c.cfg.Energy.AccessEnergies(profiles[:]))

	subs := c.enabledDataSubarrays() + c.enabledTagSubarrays()
	bytes := c.EnabledBytes()
	if c.cfg.AblationFullPrecharge {
		subs = c.cfg.Geom.SubarraysPerWay()*c.maxWays + c.fullTagSubarrays()
		bytes = c.cfg.Geom.SizeBytes
	}
	c.idleCyclePJ = c.cfg.Energy.IdleCyclePJ(subs, bytes)
	c.enabledBytesF = float64(c.EnabledBytes())
}

func (c *Cache) chargeArray(kind AccessKind) {
	c.energyPJ += c.accessPJ[kind]
}

// integrateIdle accrues clock+leakage energy and the size-time integral
// up to cycle now.
func (c *Cache) integrateIdle(now uint64) {
	if now <= c.lastIdleCycle {
		return
	}
	span := float64(now - c.lastIdleCycle)
	c.idlePJ += span * c.idleCyclePJ
	c.sizeIntegral += span * c.enabledBytesF
	c.totalSizeSpanC += now - c.lastIdleCycle
	c.lastIdleCycle = now
}

// Access implements Level.
//
//simlint:hotpath per-memory-reference; PR 5 pinned this at zero steady-state allocations
func (c *Cache) Access(now uint64, addr uint64, write bool) uint64 {
	c.integrateIdle(now)
	c.Stat.Accesses.Inc()
	c.useClock++
	if write {
		c.chargeArray(KindStoreLookup)
	} else {
		c.chargeArray(KindLookup)
	}

	block := c.blockAddr(addr)
	set := c.setIndex(block)
	ways := c.setLines(set)
	for w := 0; w < c.effWays; w++ {
		ln := &ways[w]
		if ln.Valid && ln.BlockAddr == block {
			c.Stat.Hits.Inc()
			ln.lastUse = c.useClock
			if write {
				ln.Dirty = true
			}
			done := now + c.cfg.HitLatency
			// Fills install block state synchronously, so an access that
			// arrives while the fill is still in flight appears as a hit;
			// it is really a secondary (coalesced) miss and must wait for
			// the outstanding fill to complete.
			if c.mshr != nil {
				if ready, ok := c.mshr.coalesce(block, done); ok {
					c.Stat.MSHRCoalesced.Inc()
					return ready
				}
			}
			return done
		}
	}

	// Miss path.
	c.Stat.Misses.Inc()
	missStart := now + c.cfg.HitLatency // detect miss after tag check

	if c.mshr != nil {
		if free := c.mshr.earliestFree(missStart); free > missStart {
			c.Stat.MSHRStalls.Inc()
			missStart = free
		}
	}

	fillDone := c.fetchAndFill(missStart, addr, block, set, write)

	if c.mshr != nil {
		c.mshr.allocate(block, fillDone)
	}
	return fillDone
}

// Warm implements Level: the functional twin of Access. It walks the same
// tag/LRU/dirty state machine — identical hit decisions, identical victim
// selection, identical dirty-victim propagation to the next level — but
// performs no timing, charges no energy, and records no statistics, MSHR,
// or writeback-buffer activity. useClock is shared with Access so LRU
// ordering stays consistent when detailed and fast-forward windows
// interleave.
//
//simlint:hotpath per-memory-reference during fast-forward windows
func (c *Cache) Warm(addr uint64, write bool) {
	c.useClock++
	block := c.blockAddr(addr)
	set := c.setIndex(block)
	ways := c.setLines(set)
	for w := 0; w < c.effWays; w++ {
		ln := &ways[w]
		if ln.Valid && ln.BlockAddr == block {
			ln.lastUse = c.useClock
			if write {
				ln.Dirty = true
			}
			return
		}
	}

	// Miss: warm the next level, evict as Access would, install.
	c.next.Warm(addr, false)
	ln := &ways[c.victim(ways)]
	if ln.Valid && ln.Dirty {
		c.next.Warm(ln.BlockAddr<<c.offBits, true)
	}
	*ln = Line{BlockAddr: block, Valid: true, Dirty: write, lastUse: c.useClock}
}

// fetchAndFill requests the block from the next level, selects a victim,
// performs any writeback, and installs the block. Returns completion time.
func (c *Cache) fetchAndFill(start uint64, addr, block uint64, set int, write bool) uint64 {
	nextDone := c.next.Access(start, addr, false)

	ways := c.setLines(set)
	ln := &ways[c.victim(ways)]
	fillAt := nextDone
	if ln.Valid && ln.Dirty {
		fillAt = c.writebackVictim(nextDone, ln.BlockAddr)
	}
	c.chargeArray(KindFill)
	c.Stat.Fills.Inc()
	*ln = Line{BlockAddr: block, Valid: true, Dirty: write, lastUse: c.useClock}
	return fillAt
}

// victim selects the frame a miss in set ways evicts, among the
// enabled ways: an invalid one if there is one, else the least
// recently used.
func (c *Cache) victim(ways []Line) int {
	victim := 0
	oldest := ^uint64(0)
	for w := 0; w < c.effWays; w++ {
		ln := &ways[w]
		if !ln.Valid {
			return w
		}
		if ln.lastUse < oldest {
			oldest = ln.lastUse
			victim = w
		}
	}
	return victim
}

// Reacher is a level that can tell, without changing any state, whether
// an access would send traffic to a level below it.
type Reacher interface {
	Reaches(addr uint64, depth int) bool
}

// Reaches reports whether an access to addr, made now, would reach the
// level depth levels below c (1 is c's next level); the levels between
// must be Reachers. It changes no state. Only a miss leaves c: it reads
// addr's block from the next level and, when the frame it evicts is
// dirty, writes the victim's block there.
//
//simlint:coldpath gang arms probe a few instructions per policy interval
func (c *Cache) Reaches(addr uint64, depth int) bool {
	block := c.blockAddr(addr)
	ways := c.setLines(c.setIndex(block))
	for w := 0; w < c.effWays; w++ {
		if ln := &ways[w]; ln.Valid && ln.BlockAddr == block {
			return false
		}
	}
	if depth == 1 {
		return true
	}
	next := c.next.(Reacher)
	if next.Reaches(addr, depth-1) {
		return true
	}
	ln := &ways[c.victim(ways)]
	return ln.Valid && ln.Dirty && next.Reaches(ln.BlockAddr<<c.offBits, depth-1)
}

// writebackVictim reads the victim and sends it to the next level via the
// writeback buffer (if present). Returns the cycle at which the fill may
// proceed (a full buffer back-pressures the fill).
func (c *Cache) writebackVictim(now uint64, victimBlock uint64) uint64 {
	c.chargeArray(KindWritebackRead)
	c.Stat.Writebacks.Inc()
	victimAddr := victimBlock << c.offBits
	if c.wb == nil {
		return c.next.Access(now, victimAddr, true)
	}
	// acquire cannot fail: a full buffer resolves to the earliest drain
	// cycle, at which a slot is free by construction.
	slotAt := c.wb.acquire(now)
	done := c.next.Access(slotAt, victimAddr, true)
	c.wb.commit(done)
	return slotAt // fill proceeds once buffered, not once drained
}

// ResizeFlush describes what a resize operation evicted.
type ResizeFlush struct {
	Invalidated int // total blocks invalidated
	Writebacks  int // dirty blocks written back to the next level
}

// SetEnabled changes the effective configuration to effSets×effWays,
// applying the organization-specific flush semantics:
//
//   - any way being disabled has its dirty blocks written back and all
//     its blocks invalidated (they become unreachable);
//   - any set being disabled likewise flushes;
//   - when sets are *enabled* (upsize), every resident block whose set
//     mapping changes under the new index width is flushed — clean or
//     dirty — matching the paper's selective-sets semantics (§2.1).
//
// The operation is performed at cycle now for energy integration. The
// returned ResizeFlush reports eviction work (the writebacks' energy is
// charged to this cache and the next level; the latency is off the
// critical path, modelling background flushing during the resize).
//
//simlint:coldpath runs at resize boundaries only, never per access
func (c *Cache) SetEnabled(now uint64, effSets, effWays int) (ResizeFlush, error) {
	var fl ResizeFlush
	if effWays < 1 || effWays > c.maxWays {
		return fl, fmt.Errorf("cache %s: effWays %d out of range 1..%d", c.cfg.Name, effWays, c.maxWays)
	}
	if effSets < 1 || effSets > c.maxSets || effSets&(effSets-1) != 0 {
		return fl, fmt.Errorf("cache %s: effSets %d must be a power of two in 1..%d", c.cfg.Name, effSets, c.maxSets)
	}
	if c.cfg.ProvisionTagForMinSets > 0 && effSets < c.cfg.ProvisionTagForMinSets {
		return fl, fmt.Errorf("cache %s: effSets %d below provisioned minimum %d", c.cfg.Name, effSets, c.cfg.ProvisionTagForMinSets)
	}
	if effSets == c.effSets && effWays == c.effWays {
		return fl, nil
	}
	c.integrateIdle(now)
	c.Stat.Resizes.Inc()

	oldSets, oldWays := c.effSets, c.effWays

	flushLine := func(ln *Line) {
		if !ln.Valid {
			return
		}
		fl.Invalidated++
		c.Stat.FlushedBlocks.Inc()
		if c.cfg.AblationFreeFlush {
			// Invalidate for correctness, but charge no array energy and
			// send no writeback traffic (idealized resizing).
			ln.Valid = false
			ln.Dirty = false
			return
		}
		c.chargeArray(KindFlushRead)
		if ln.Dirty {
			fl.Writebacks++
			c.Stat.FlushedDirty.Inc()
			c.next.Access(now, ln.BlockAddr<<c.offBits, true)
		}
		ln.Valid = false
		ln.Dirty = false
	}

	// 1. Ways being disabled.
	if effWays < oldWays {
		for s := 0; s < oldSets; s++ {
			ways := c.setLines(s)
			for w := effWays; w < oldWays; w++ {
				flushLine(&ways[w])
			}
		}
	}
	// 2. Sets being disabled.
	if effSets < oldSets {
		for s := effSets; s < oldSets; s++ {
			ways := c.setLines(s)
			for w := 0; w < oldWays; w++ {
				flushLine(&ways[w])
			}
		}
	}
	// 3. Sets being enabled: remapped survivors flush.
	if effSets > oldSets {
		for s := 0; s < oldSets; s++ {
			ways := c.setLines(s)
			for w := 0; w < oldWays && w < effWays; w++ {
				ln := &ways[w]
				if ln.Valid && int(ln.BlockAddr&uint64(effSets-1)) != s {
					flushLine(ln)
				}
			}
		}
	}

	c.effSets = effSets
	c.effWays = effWays
	// The flushes above charged the outgoing configuration's energy
	// table; everything from here on runs under the new one.
	c.refreshDerived()
	return fl, nil
}

// IntegrateIdleTo accrues background (clock + leakage) energy and the
// size-time integral up to cycle now without finalizing the cache. The
// sampled execution mode calls it at detailed-window boundaries so
// per-window energy deltas include background energy; a later Finalize
// at the same cycle then integrates nothing further.
func (c *Cache) IntegrateIdleTo(now uint64) { c.integrateIdle(now) }

// Finalize implements Level.
func (c *Cache) Finalize(endCycle uint64) {
	if c.finalized {
		return
	}
	c.integrateIdle(endCycle)
	c.finalized = true
}

// EnergyPJ implements Level: total energy, switching plus background.
func (c *Cache) EnergyPJ() float64 { return c.energyPJ + c.idlePJ }

// SwitchingPJ returns per-access (dynamic) energy only.
func (c *Cache) SwitchingPJ() float64 { return c.energyPJ }

// BackgroundPJ returns clock-tree and leakage energy: the component that
// scales with enabled capacity over time. The paper (§3) argues resizing
// savings apply directly to leakage because leakage is proportional to
// enabled size; this split makes that measurable.
func (c *Cache) BackgroundPJ() float64 { return c.idlePJ }

// AvgEnabledBytes returns the time-weighted average enabled capacity.
func (c *Cache) AvgEnabledBytes() float64 {
	if c.totalSizeSpanC == 0 {
		return float64(c.EnabledBytes())
	}
	return c.sizeIntegral / float64(c.totalSizeSpanC)
}

// Contents iterates over valid resident blocks (for tests and debugging).
func (c *Cache) Contents(fn func(set, way int, ln Line)) {
	for s := 0; s < c.effSets; s++ {
		ways := c.setLines(s)
		for w := 0; w < c.effWays; w++ {
			if ways[w].Valid {
				fn(s, w, ways[w])
			}
		}
	}
}
