package bpred

import (
	"testing"
	"testing/quick"
)

func TestBTBHitAfterUpdate(t *testing.T) {
	b := NewBTB(6, 2)
	pc, tgt := uint64(0x400100), uint64(0x400800)
	if _, hit := b.Lookup(pc); hit {
		t.Fatal("cold BTB hit")
	}
	b.Update(pc, tgt)
	got, hit := b.Lookup(pc)
	if !hit || got != tgt {
		t.Fatalf("Lookup = %x,%v", got, hit)
	}
	// Retarget the same branch (e.g. indirect branch changed target).
	b.Update(pc, tgt+64)
	if got, _ := b.Lookup(pc); got != tgt+64 {
		t.Fatalf("retarget failed: %x", got)
	}
	if b.HitRate() <= 0 || b.HitRate() >= 1 {
		t.Fatalf("hit rate = %v", b.HitRate())
	}
}

func TestBTBLRUEviction(t *testing.T) {
	b := NewBTB(0, 2) // one set, 2 ways: third entry evicts LRU
	b.Update(0x100, 0xA)
	b.Update(0x200, 0xB)
	b.Lookup(0x100) // 0x100 now MRU
	b.Update(0x300, 0xC)
	if _, hit := b.Lookup(0x100); !hit {
		t.Fatal("MRU entry evicted")
	}
	if _, hit := b.Lookup(0x200); hit {
		t.Fatal("LRU entry survived")
	}
	if _, hit := b.Lookup(0x300); !hit {
		t.Fatal("new entry missing")
	}
}

func TestBTBSetConflictIsolation(t *testing.T) {
	b := NewBTB(4, 1) // 16 sets, direct-mapped
	// Same set (stride 16 lines), different tags: they evict each other.
	a1 := uint64(0x1000)
	a2 := a1 + 16*4*16
	b.Update(a1, 1)
	b.Update(a2, 2)
	if _, hit := b.Lookup(a1); hit {
		t.Fatal("direct-mapped conflict should have evicted a1")
	}
	// Different sets: both live.
	b.Update(a1, 1)
	b.Update(a1+4, 3)
	if _, hit := b.Lookup(a1); !hit {
		t.Fatal("adjacent branch evicted a1 from another set")
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(8)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("underflow returned ok")
	}
	if r.Pushes != 3 || r.Pops != 4 {
		t.Fatalf("counters %d/%d", r.Pushes, r.Pops)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if r.Depth() != 2 {
		t.Fatalf("depth = %d", r.Depth())
	}
	if got, _ := r.Pop(); got != 3 {
		t.Fatalf("Pop = %d, want 3", got)
	}
	if got, _ := r.Pop(); got != 2 {
		t.Fatalf("Pop = %d, want 2", got)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("oldest entry should have been overwritten")
	}
}

// Property: matched push/pop sequences that never exceed capacity behave
// exactly like a slice stack.
func TestRASMatchesReferenceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		r := NewRAS(16)
		var ref []uint64
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 && len(ref) < 16 {
				r.Push(next)
				ref = append(ref, next)
				next++
			} else {
				got, ok := r.Pop()
				if len(ref) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if !ok || got != want {
					return false
				}
			}
		}
		return r.Depth() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBTBReleaseRecyclesCleared: a released BTB's entries come back to a
// later NewBTB of the same size invalid, so a recycled BTB predicts
// exactly as a fresh one; the released BTB's counters stay readable.
func TestBTBReleaseRecyclesCleared(t *testing.T) {
	for range 3 {
		b := NewBTB(4, 2)
		for pc := uint64(0); pc < 256; pc += 4 {
			b.Update(pc, pc+64)
		}
		if _, hit := b.Lookup(252); !hit {
			t.Fatal("fresh BTB lost an installed target")
		}
		b.Release()
		if b.Lookups != 1 || b.Hits != 1 {
			t.Errorf("released BTB's counters = %d lookups, %d hits; want 1, 1", b.Lookups, b.Hits)
		}
		again := NewBTB(4, 2)
		for i, e := range again.entries {
			if e != (btbEntry{}) {
				t.Fatalf("recycled entry %d = %+v, want invalid", i, e)
			}
		}
		again.Release()
	}
	odd := NewBTB(3, 3) // 24 entries: not pooled
	odd.Release()
	if got := len(NewBTB(3, 3).entries); got != 24 {
		t.Errorf("BTB of 8 sets × 3 ways has %d entries", got)
	}
}
