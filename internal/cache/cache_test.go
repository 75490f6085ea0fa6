package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"resizecache/internal/geometry"
)

// stubLevel is a scripted next level recording accesses.
type stubLevel struct {
	latency uint64
	reads   int
	writes  int
	addrs   []uint64
}

func (s *stubLevel) Access(now uint64, addr uint64, write bool) uint64 {
	if write {
		s.writes++
	} else {
		s.reads++
	}
	s.addrs = append(s.addrs, addr)
	return now + s.latency
}
func (s *stubLevel) Warm(addr uint64, write bool) { s.Access(0, addr, write) }
func (s *stubLevel) Finalize(uint64)              {}
func (s *stubLevel) EnergyPJ() float64            { return 0 }

func testGeom() geometry.Geometry {
	// Small geometry keeps tests readable: 4K 2-way, 32B blocks, 1K
	// subarrays -> 64 sets, 2 subarrays per way.
	return geometry.Geometry{SizeBytes: 4 << 10, Assoc: 2, BlockBytes: 32, SubarrayBytes: 1 << 10}
}

func newTestCache(t *testing.T, cfg Config, next Level) *Cache {
	t.Helper()
	if cfg.Geom.SizeBytes == 0 {
		cfg.Geom = testGeom()
	}
	if cfg.Name == "" {
		cfg.Name = "L1"
	}
	if cfg.HitLatency == 0 {
		cfg.HitLatency = 1
	}
	cfg.Energy = geometry.Default18um()
	if next == nil {
		next = &stubLevel{latency: 10}
	}
	c, err := New(cfg, next)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// addrFor builds an address that maps to the given set with the given tag
// under the *full* geometry.
func addrFor(g geometry.Geometry, set, tag int) uint64 {
	return uint64(tag)<<uint(g.IndexBits()+g.OffsetBits()) | uint64(set)<<uint(g.OffsetBits())
}

func TestHitAfterMiss(t *testing.T) {
	next := &stubLevel{latency: 10}
	c := newTestCache(t, Config{}, next)
	a := addrFor(testGeom(), 3, 7)

	done := c.Access(0, a, false)
	if done <= 1 {
		t.Fatalf("first access should miss: done=%d", done)
	}
	if next.reads != 1 {
		t.Fatalf("next level reads = %d, want 1", next.reads)
	}
	done = c.Access(done, a, false)
	if got := c.Stat.Hits.Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if done != c.Stat.Accesses.Value()+0 && done == 0 {
		t.Fatal("hit must complete")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := newTestCache(t, Config{}, nil)
	g := testGeom()
	a := addrFor(g, 5, 1)
	b := addrFor(g, 5, 2)
	d := addrFor(g, 5, 3)

	now := c.Access(0, a, false)
	now = c.Access(now, b, false)
	now = c.Access(now, a, false) // a is now MRU
	now = c.Access(now, d, false) // evicts b (LRU)
	misses := c.Stat.Misses.Value()
	now = c.Access(now, a, false)
	if c.Stat.Misses.Value() != misses {
		t.Fatal("a should still hit after d evicted the LRU block")
	}
	c.Access(now, b, false)
	if c.Stat.Misses.Value() != misses+1 {
		t.Fatal("b should have been evicted")
	}
}

func TestDirtyVictimWritesBack(t *testing.T) {
	next := &stubLevel{latency: 10}
	c := newTestCache(t, Config{}, next)
	g := testGeom()
	a := addrFor(g, 9, 1)
	b := addrFor(g, 9, 2)
	d := addrFor(g, 9, 3)

	now := c.Access(0, a, true) // dirty
	now = c.Access(now, b, false)
	c.Access(now, d, false) // evicts dirty a
	if next.writes != 1 {
		t.Fatalf("writebacks to next = %d, want 1", next.writes)
	}
	if c.Stat.Writebacks.Value() != 1 {
		t.Fatalf("writeback counter = %d", c.Stat.Writebacks.Value())
	}
	// The written-back address must be block a's address.
	found := false
	for _, ad := range next.addrs {
		if ad == a {
			found = true
		}
	}
	if !found {
		t.Fatal("victim writeback address mismatch")
	}
}

func TestCleanVictimSilentlyDropped(t *testing.T) {
	next := &stubLevel{latency: 10}
	c := newTestCache(t, Config{}, next)
	g := testGeom()
	now := c.Access(0, addrFor(g, 9, 1), false)
	now = c.Access(now, addrFor(g, 9, 2), false)
	c.Access(now, addrFor(g, 9, 3), false)
	if next.writes != 0 {
		t.Fatalf("clean eviction caused %d writes", next.writes)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	next := &stubLevel{latency: 10}
	c := newTestCache(t, Config{}, next)
	g := testGeom()
	a := addrFor(g, 4, 1)
	now := c.Access(0, a, false) // clean fill
	now = c.Access(now, a, true) // write hit dirties
	now = c.Access(now, addrFor(g, 4, 2), false)
	c.Access(now, addrFor(g, 4, 3), false) // evict a
	if next.writes != 1 {
		t.Fatal("write-hit block must write back on eviction")
	}
}

func TestMSHRCoalescing(t *testing.T) {
	next := &stubLevel{latency: 50}
	c := newTestCache(t, Config{MSHREntries: 4}, next)
	g := testGeom()
	a := addrFor(g, 1, 1)
	done1 := c.Access(0, a, false)
	// Second access to the same block while the miss is outstanding: must
	// coalesce (no second next-level read) and complete no later.
	done2 := c.Access(2, a+8, false) // same block, different word
	if next.reads != 1 {
		t.Fatalf("next reads = %d, want 1 (coalesced)", next.reads)
	}
	if done2 > done1 {
		t.Fatalf("coalesced miss finishes at %d after primary %d", done2, done1)
	}
	if c.Stat.MSHRCoalesced.Value() != 1 {
		t.Fatal("coalesce not counted")
	}
}

func TestMSHRStructuralStall(t *testing.T) {
	next := &stubLevel{latency: 100}
	c := newTestCache(t, Config{MSHREntries: 2}, next)
	g := testGeom()
	// Three distinct blocks missing back-to-back at cycle 0..2: the third
	// must wait for an MSHR slot.
	d1 := c.Access(0, addrFor(g, 1, 1), false)
	_ = c.Access(1, addrFor(g, 2, 1), false)
	d3 := c.Access(2, addrFor(g, 3, 1), false)
	if c.Stat.MSHRStalls.Value() != 1 {
		t.Fatalf("MSHR stalls = %d, want 1", c.Stat.MSHRStalls.Value())
	}
	if d3 <= d1 {
		t.Fatalf("stalled miss %d should finish after first %d", d3, d1)
	}
}

func TestCoalescedStoreDirtiesBlock(t *testing.T) {
	next := &stubLevel{latency: 50}
	c := newTestCache(t, Config{MSHREntries: 4}, next)
	g := testGeom()
	a := addrFor(g, 1, 1)
	done := c.Access(0, a, false) // primary load miss
	_ = c.Access(2, a+16, true)   // coalesced store
	now := c.Access(done, addrFor(g, 1, 2), false)
	c.Access(now, addrFor(g, 1, 3), false) // evict a
	if next.writes != 1 {
		t.Fatal("block dirtied by coalesced store must write back")
	}
}

func TestBlockingCacheSerializesMisses(t *testing.T) {
	next := &stubLevel{latency: 100}
	c := newTestCache(t, Config{}, next) // no MSHRs: blocking
	g := testGeom()
	d1 := c.Access(0, addrFor(g, 1, 1), false)
	if d1 < 100 {
		t.Fatalf("miss latency %d too small", d1)
	}
	// A blocking cache has no coalescing; same-block re-access after
	// completion hits.
	d2 := c.Access(d1, addrFor(g, 1, 1), false)
	if d2 != d1+1 {
		t.Fatalf("post-fill hit done=%d, want %d", d2, d1+1)
	}
}

func TestResizeWaysDownFlushesDirtyOnly(t *testing.T) {
	next := &stubLevel{latency: 10}
	c := newTestCache(t, Config{}, next)
	g := testGeom()
	// Fill both ways of set 0: way0 gets a (dirty via later store), way1 b.
	a := addrFor(g, 0, 1)
	b := addrFor(g, 0, 2)
	now := c.Access(0, a, true)
	now = c.Access(now, b, false)

	fl, err := c.SetEnabled(now, c.EffSets(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// One of the two blocks lives in way 1 and must be invalidated; the
	// LRU fill order puts a in way0, b in way1, so b (clean) flushes.
	if fl.Invalidated != 1 {
		t.Fatalf("invalidated = %d, want 1", fl.Invalidated)
	}
	if fl.Writebacks != 0 {
		t.Fatalf("clean flush should not write back, got %d", fl.Writebacks)
	}
	if c.EnabledBytes() != g.SizeBytes/2 {
		t.Fatalf("enabled bytes = %d", c.EnabledBytes())
	}
	// a must still hit; b must miss.
	misses := c.Stat.Misses.Value()
	now = c.Access(now, a, false)
	if c.Stat.Misses.Value() != misses {
		t.Fatal("way-0 block lost by way-1 disable")
	}
	c.Access(now, b, false)
	if c.Stat.Misses.Value() != misses+1 {
		t.Fatal("way-1 block survived disable")
	}
}

func TestResizeSetsDownFlushesDisabledSets(t *testing.T) {
	next := &stubLevel{latency: 10}
	c := newTestCache(t, Config{}, next)
	g := testGeom()
	half := g.Sets() / 2
	lowSet := 3
	highSet := half + 5
	aLow := addrFor(g, lowSet, 1)
	aHigh := addrFor(g, highSet, 1)
	now := c.Access(0, aLow, false)
	now = c.Access(now, aHigh, true) // dirty block in a to-be-disabled set

	fl, err := c.SetEnabled(now, half, c.EffWays())
	if err != nil {
		t.Fatal(err)
	}
	if fl.Invalidated != 1 || fl.Writebacks != 1 {
		t.Fatalf("flush = %+v, want 1 invalidated / 1 writeback", fl)
	}
	if next.writes != 1 {
		t.Fatal("dirty flush must reach next level")
	}
	// aHigh now maps to set highSet & (half-1) = 5 and must miss.
	misses := c.Stat.Misses.Value()
	c.Access(now, aHigh, false)
	if c.Stat.Misses.Value() != misses+1 {
		t.Fatal("block in disabled set must miss after downsize")
	}
}

func TestResizeSetsUpFlushesRemappedBlocks(t *testing.T) {
	next := &stubLevel{latency: 10}
	c := newTestCache(t, Config{}, next)
	g := testGeom()
	half := g.Sets() / 2
	if _, err := c.SetEnabled(0, half, c.EffWays()); err != nil {
		t.Fatal(err)
	}
	// Two blocks that alias to set 2 at half size but map to different
	// sets at full size: tags chosen so full-size index differs.
	aStay := addrFor(g, 2, 4)      // full-size set 2
	aMove := addrFor(g, 2+half, 4) // full-size set 2+half, half-size set 2
	now := c.Access(0, aStay, false)
	now = c.Access(now, aMove, false)

	fl, err := c.SetEnabled(now, g.Sets(), c.EffWays())
	if err != nil {
		t.Fatal(err)
	}
	if fl.Invalidated != 1 {
		t.Fatalf("remap flush invalidated = %d, want 1 (clean blocks flush too)", fl.Invalidated)
	}
	misses := c.Stat.Misses.Value()
	now = c.Access(now, aStay, false)
	if c.Stat.Misses.Value() != misses {
		t.Fatal("unmoved block must survive upsize")
	}
	c.Access(now, aMove, false)
	if c.Stat.Misses.Value() != misses+1 {
		t.Fatal("remapped block must have been flushed on upsize")
	}
}

func TestResizeRejectsInvalid(t *testing.T) {
	c := newTestCache(t, Config{}, nil)
	if _, err := c.SetEnabled(0, 3, 1); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	if _, err := c.SetEnabled(0, c.EffSets(), 0); err == nil {
		t.Fatal("zero ways accepted")
	}
	if _, err := c.SetEnabled(0, c.EffSets()*2, 1); err == nil {
		t.Fatal("oversize sets accepted")
	}
	cMin := newTestCache(t, Config{ProvisionTagForMinSets: 16}, nil)
	if _, err := cMin.SetEnabled(0, 8, 1); err == nil {
		t.Fatal("resize below provisioned tag minimum accepted")
	}
}

func TestResizeNoopDoesNothing(t *testing.T) {
	c := newTestCache(t, Config{}, nil)
	fl, err := c.SetEnabled(0, c.EffSets(), c.EffWays())
	if err != nil || fl.Invalidated != 0 {
		t.Fatalf("noop resize: %+v, %v", fl, err)
	}
	if c.Stat.Resizes.Value() != 0 {
		t.Fatal("noop resize counted")
	}
}

func TestEnergyScalesWithEnabledSize(t *testing.T) {
	run := func(halfSets bool) float64 {
		c := newTestCache(t, Config{}, nil)
		if halfSets {
			if _, err := c.SetEnabled(0, c.EffSets()/2, c.EffWays()); err != nil {
				t.Fatal(err)
			}
		}
		g := testGeom()
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			now = c.Access(now, addrFor(g, i%8, 1), false)
		}
		c.Finalize(now + 1000)
		return c.EnergyPJ()
	}
	full, half := run(false), run(true)
	if half >= full {
		t.Fatalf("downsized cache energy %v >= full %v", half, full)
	}
}

func TestProvisionedTagCostsMore(t *testing.T) {
	run := func(minSets int) float64 {
		c := newTestCache(t, Config{ProvisionTagForMinSets: minSets}, nil)
		g := testGeom()
		now := uint64(0)
		for i := 0; i < 1000; i++ {
			now = c.Access(now, addrFor(g, i%8, 1), false)
		}
		c.Finalize(now)
		return c.EnergyPJ()
	}
	conventional := run(0)
	provisioned := run(2) // tag array sized for a 2-set minimum
	if provisioned <= conventional {
		t.Fatal("selective-sets provisioned tag must dissipate more than conventional")
	}
}

func TestAvgEnabledBytesIntegration(t *testing.T) {
	c := newTestCache(t, Config{}, nil)
	g := testGeom()
	// Full size for ~1000 cycles, then half size for ~1000 cycles.
	now := uint64(0)
	for now < 1000 {
		now = c.Access(now, addrFor(g, 0, 1), false)
	}
	if _, err := c.SetEnabled(1000, c.EffSets()/2, c.EffWays()); err != nil {
		t.Fatal(err)
	}
	c.Finalize(2000)
	avg := c.AvgEnabledBytes()
	want := float64(g.SizeBytes)*0.5 + float64(g.SizeBytes/2)*0.5
	if avg < want*0.95 || avg > want*1.05 {
		t.Fatalf("avg enabled = %v, want ~%v", avg, want)
	}
}

func TestMemoryModel(t *testing.T) {
	m := NewMemory(32)
	if got := m.Latency(); got != 80+5*4 {
		t.Fatalf("latency = %d, want 100", got)
	}
	done := m.Access(7, 0x1000, false)
	if done != 7+100 {
		t.Fatalf("done = %d", done)
	}
	if m.Accesses() != 1 || m.EnergyPJ() <= 0 {
		t.Fatal("memory accounting broken")
	}
	m64 := NewMemory(64)
	if m64.Latency() != 80+5*8 {
		t.Fatalf("64B latency = %d, want 120", m64.Latency())
	}
}

func TestWritebackBufferBackpressure(t *testing.T) {
	b := newWritebackBuffer(2)
	if at := b.acquire(0); at != 0 {
		t.Fatalf("first acquire = %d, want 0", at)
	}
	b.commit(100)
	if at := b.acquire(0); at != 0 {
		t.Fatalf("second acquire = %d, want 0", at)
	}
	b.commit(200)
	// Full at cycle 50: acquire stalls to the earliest drain.
	if at := b.acquire(50); at != 100 {
		t.Fatalf("full-buffer acquire = %d, want 100 (earliest drain)", at)
	}
	b.commit(180)
	if got := b.occupancyAt(150); got != 2 {
		t.Fatalf("occupancy at 150 = %d, want 2", got)
	}
	// At a drain time the slot is free again with no stall.
	if at := b.acquire(200); at != 200 {
		t.Fatalf("acquire at drain time = %d, want 200", at)
	}
}

func TestMSHRFileAccounting(t *testing.T) {
	m := newMSHRFile(2)
	m.allocate(1, 100)
	m.allocate(2, 200)
	if got := m.outstandingAt(50); got != 2 {
		t.Fatalf("outstanding = %d", got)
	}
	if r, ok := m.coalesce(1, 50); !ok || r != 100 {
		t.Fatalf("coalesce = %d,%v", r, ok)
	}
	if _, ok := m.coalesce(1, 150); ok {
		t.Fatal("drained entry must not coalesce")
	}
	if f := m.earliestFree(50); f != 100 {
		t.Fatalf("earliestFree = %d", f)
	}
	if f := m.earliestFree(150); f != 150 {
		t.Fatalf("earliestFree after drain = %d", f)
	}
}

// Property: for a random access stream, total hits+misses == accesses and
// the cache never reports a hit for an address it could not contain.
func TestCacheCountingInvariantProperty(t *testing.T) {
	f := func(seed uint32, writes []bool) bool {
		next := &stubLevel{latency: 20}
		cfg := Config{Name: "p", Geom: testGeom(), HitLatency: 1, Energy: geometry.Default18um()}
		c, err := New(cfg, next)
		if err != nil {
			return false
		}
		x := uint64(seed) | 1
		now := uint64(0)
		for _, w := range writes {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			addr := (x % 8192) * 8
			now = c.Access(now, addr, w)
		}
		st := &c.Stat
		if st.Hits.Value()+st.Misses.Value() != st.Accesses.Value() {
			return false
		}
		return st.Fills.Value() == st.Misses.Value()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: resident block count never exceeds enabled capacity in blocks.
func TestOccupancyBoundProperty(t *testing.T) {
	f := func(seed uint32, n uint16, halfWays, halfSets bool) bool {
		c, err := New(Config{Name: "p", Geom: testGeom(), HitLatency: 1,
			Energy: geometry.Default18um()}, &stubLevel{latency: 5})
		if err != nil {
			return false
		}
		ways := c.EffWays()
		sets := c.EffSets()
		if halfWays {
			ways = 1
		}
		if halfSets {
			sets /= 2
		}
		if _, err := c.SetEnabled(0, sets, ways); err != nil {
			return false
		}
		x := uint64(seed) | 1
		now := uint64(0)
		for i := 0; i < int(n)%2000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			now = c.Access(now, (x%65536)*4, x&1 == 0)
		}
		count := 0
		c.Contents(func(_, _ int, _ Line) { count++ })
		return count <= sets*ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReachesMatchesAccess: over reads and writes that miss, hit and
// evict dirty victims in an L1 over an L2, Reaches changes no state and
// tells exactly which accesses the next access sends to the L2 (depth
// 1) and to the level below the L2 (depth 2).
func TestReachesMatchesAccess(t *testing.T) {
	below := &stubLevel{latency: 50}
	l2 := newTestCache(t, Config{Name: "L2", HitLatency: 6,
		Geom: geometry.Geometry{SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 64, SubarrayBytes: 1 << 10}}, below)
	l1 := newTestCache(t, Config{WritebackEntries: 2}, l2)
	var reached [2][2]int // by depth, then outcome
	rng := uint64(1)
	for i := range 20_000 {
		rng = rng*6364136223846793005 + 1442695040888963407
		addr := (rng >> 20) % (64 << 10)
		write := rng>>60 < 6
		lines := slices.Clone(l1.lines)
		r1, r2 := l1.Reaches(addr, 1), l1.Reaches(addr, 2)
		if l1.useClock != uint64(i) || !slices.Equal(lines, l1.lines) {
			t.Fatalf("access %d: Reaches changed the L1", i)
		}
		l2Before, belowBefore := l2.Stat.Accesses.Value(), below.reads+below.writes
		l1.Access(uint64(10*i), addr, write)
		if got := l2.Stat.Accesses.Value() != l2Before; got != r1 {
			t.Fatalf("access %d to %#x: reached the L2 %v, Reaches(1) %v", i, addr, got, r1)
		}
		if got := below.reads+below.writes != belowBefore; got != r2 {
			t.Fatalf("access %d to %#x: reached below the L2 %v, Reaches(2) %v", i, addr, got, r2)
		}
		reached[0][b2i(r1)]++
		reached[1][b2i(r2)]++
	}
	for d, n := range reached {
		if n[0] == 0 || n[1] == 0 {
			t.Errorf("depth %d: Reaches was %v for every access", d+1, n[1] > 0)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
