package cache

import (
	"testing"

	"resizecache/internal/geometry"
)

// silentLevel is a constant-latency next level that records nothing, so
// it cannot allocate on the access path.
type silentLevel struct{ latency uint64 }

func (s *silentLevel) Access(now uint64, addr uint64, write bool) uint64 { return now + s.latency }
func (s *silentLevel) Warm(addr uint64, write bool)                      {}
func (s *silentLevel) Finalize(uint64)                                   {}
func (s *silentLevel) EnergyPJ() float64                                 { return 0 }

// TestAccessSteadyStateZeroAllocs locks in the table-driven hot path's
// allocation behaviour: once constructed (and warmed through its MSHR
// and writeback structures), Cache.Access must not allocate — hits,
// misses, fills, and buffered writebacks all run on preallocated state.
func TestAccessSteadyStateZeroAllocs(t *testing.T) {
	c, err := New(Config{
		Name: "dut", Geom: testGeom(), HitLatency: 1,
		Energy: geometry.Default18um(), MSHREntries: 4, WritebackEntries: 2,
	}, &silentLevel{latency: 40})
	if err != nil {
		t.Fatal(err)
	}

	now := uint64(0)
	step := func(i uint64) {
		// An odd block stride over a footprint past the cache size forces
		// steady misses with dirty victims (every third access writes),
		// exercising fill, victim writeback, and MSHR turnover alongside
		// re-walk hits across all sets.
		addr := (i % 512) * 33 * 32
		done := c.Access(now, addr, i%3 == 0)
		if done > now {
			now = done
		}
		now++
	}
	for i := uint64(0); i < 4096; i++ {
		step(i) // warm arrays, MSHRs, and the writeback buffer
	}

	var i uint64
	allocs := testing.AllocsPerRun(2000, func() {
		step(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Cache.Access allocated %.2f times per access in steady state; want 0", allocs)
	}
}

// TestWritebackBufferFullBackpressure pins the writeback buffer's
// full-buffer semantics after the acquire refactor: when every slot is
// draining, a victim writeback stalls the fill until the earliest
// entry's drain cycle — acquire cannot fail, it resolves to that cycle
// by construction.
func TestWritebackBufferFullBackpressure(t *testing.T) {
	b := newWritebackBuffer(2)

	// Fill both slots with drains at cycles 100 and 200.
	if at := b.acquire(0); at != 0 {
		t.Fatalf("acquire on empty buffer: got cycle %d, want 0", at)
	}
	b.commit(100)
	if at := b.acquire(0); at != 0 {
		t.Fatalf("acquire with one free slot: got cycle %d, want 0", at)
	}
	b.commit(200)

	// Full buffer: the next acquire must resolve to the earliest drain.
	if at := b.acquire(10); at != 100 {
		t.Fatalf("acquire on full buffer: got cycle %d, want 100 (earliest drain)", at)
	}
	b.commit(300)

	// The slot that drained at 100 was reused; now the earliest is 200.
	if at := b.acquire(150); at != 200 {
		t.Fatalf("acquire on refilled buffer: got cycle %d, want 200", at)
	}
	b.commit(400)

	if got := b.occupancyAt(250); got != 2 {
		t.Fatalf("occupancy at 250: got %d, want 2", got)
	}
}

// TestWritebackFullBufferStallsFill drives the full cache path: a
// 1-entry writeback buffer with a slow next level must back-pressure a
// fill behind a second dirty eviction, and the returned completion time
// must reflect the stall (regression for the unchecked second reserve).
func TestWritebackFullBufferStallsFill(t *testing.T) {
	next := &stubLevel{latency: 100}
	c, err := New(Config{
		Name: "dut", Geom: testGeom(), HitLatency: 1,
		Energy: geometry.Default18um(), WritebackEntries: 1,
	}, next)
	if err != nil {
		t.Fatal(err)
	}

	// Two writes to addresses that map to set 0 dirty two blocks.
	c.Access(0, 0*64*1024, true)
	c.Access(1, 1*64*1024, true)
	// Two more conflicting misses evict both dirty blocks back to back.
	// The first writeback buffers at its start cycle; the second finds
	// the single slot draining (drain = next access latency = 100+) and
	// must wait for it.
	d1 := c.Access(2, 2*64*1024, false)
	d2 := c.Access(3, 3*64*1024, false)
	if c.Stat.Writebacks.Value() != 2 {
		t.Fatalf("writebacks: got %d, want 2", c.Stat.Writebacks.Value())
	}
	if d2 <= d1 {
		t.Fatalf("second conflicting fill (%d) did not stall behind the full writeback buffer (first: %d)", d2, d1)
	}
	// The second fill cannot complete before the first writeback's drain
	// (which started at the first miss's next-level completion).
	if d2 < 100 {
		t.Fatalf("second fill at %d completed before the buffered writeback could drain", d2)
	}
}

// TestCacheAfterReleaseStartsInvalid: a cache built on a released,
// fully dirtied frame array starts with every frame invalid, exactly as
// a freshly allocated one does.
func TestCacheAfterReleaseStartsInvalid(t *testing.T) {
	build := func() *Cache {
		c, err := New(Config{Name: "dut", Geom: testGeom(), HitLatency: 1,
			Energy: geometry.Default18um()}, &silentLevel{latency: 40})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Rounds repeat because a sync.Pool may drop what it is given.
	for round := 0; round < 8; round++ {
		c := build()
		for i, ln := range c.lines {
			if ln != (Line{}) {
				t.Fatalf("round %d: frame %d of a new cache is %+v, want invalid", round, i, ln)
			}
		}
		for i := uint64(0); i < 4096; i++ {
			c.Access(i, i*32, true)
		}
		c.Release()
		if c.lines != nil {
			t.Fatal("a released cache still holds its frame array")
		}
	}
}
