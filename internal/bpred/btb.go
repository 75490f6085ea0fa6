package bpred

import (
	"math/bits"
	"sync"
)

// btbEntry is one BTB way. Entries live in a single flat slice indexed
// by set*ways+way, so a lookup's way probe walks one contiguous cache
// line instead of chasing per-field slice headers.
type btbEntry struct {
	tag   uint64
	tgt   uint64
	lru   uint64
	valid bool
}

// BTB is a set-associative branch target buffer: the fetch stage uses it
// to redirect to a predicted-taken branch's target in the same cycle.
// A taken branch that misses in the BTB costs a fetch bubble even when
// its direction was predicted correctly.
type BTB struct {
	setMask  uint64 // sets - 1 (sets is a power of two)
	setShift uint   // log2(sets), for the tag split
	ways     int
	entries  []btbEntry
	clock    uint64

	Lookups uint64
	Hits    uint64
}

// NewBTB builds a BTB with 2^setBits sets and the given associativity.
func NewBTB(setBits, ways int) *BTB {
	sets := 1 << setBits
	return &BTB{
		setMask:  uint64(sets - 1),
		setShift: uint(setBits),
		ways:     ways,
		entries:  newEntries(sets * ways),
	}
}

// btbPools recycles entry arrays between BTBs, as the cache package
// recycles frame arrays: pool i holds arrays of exactly 1<<i entries.
// Every gang pass builds a front end, and its BTB's array is 64 KB.
var btbPools [bits.UintSize]sync.Pool

// newEntries returns n invalid entries, reusing a released array of
// the same length when one is pooled.
func newEntries(n int) []btbEntry {
	if n > 0 && n&(n-1) == 0 {
		if p, ok := btbPools[bits.TrailingZeros(uint(n))].Get().(*[]btbEntry); ok {
			entries := *p
			clear(entries)
			return entries
		}
	}
	return make([]btbEntry, n)
}

// Release returns the BTB's entry array for reuse by a later NewBTB.
// The BTB must not be used afterwards; its counters stay readable.
// Arrays whose length is not a power of two (an associativity that is
// not one) are left to the garbage collector.
func (b *BTB) Release() {
	entries := b.entries
	b.entries = nil
	if n := len(entries); n > 0 && n&(n-1) == 0 {
		btbPools[bits.TrailingZeros(uint(n))].Put(&entries)
	}
}

// index splits a PC into set index and tag. The set count is a power of
// two, so the split is a mask and a shift — no divide on the fetch path.
func (b *BTB) index(pc uint64) (set int, tag uint64) {
	line := pc >> 2
	return int(line & b.setMask), line >> b.setShift
}

// set returns the entry slice for one set.
func (b *BTB) set(set int) []btbEntry {
	return b.entries[set*b.ways : (set+1)*b.ways]
}

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.Lookups++
	b.clock++
	s, tag := b.index(pc)
	ways := b.set(s)
	for w := range ways {
		e := &ways[w]
		if e.valid && e.tag == tag {
			e.lru = b.clock
			b.Hits++
			return e.tgt, true
		}
	}
	return 0, false
}

// Update installs or refreshes the target for a taken branch.
func (b *BTB) Update(pc, target uint64) {
	b.clock++
	s, tag := b.index(pc)
	ways := b.set(s)
	victim, oldest := 0, ^uint64(0)
	for w := range ways {
		e := &ways[w]
		if e.valid && e.tag == tag {
			e.tgt = target
			e.lru = b.clock
			return
		}
		if !e.valid {
			victim, oldest = w, 0
		} else if e.lru < oldest {
			victim, oldest = w, e.lru
		}
	}
	ways[victim] = btbEntry{tag: tag, tgt: target, lru: b.clock, valid: true}
}

// HitRate returns the fraction of lookups that hit.
func (b *BTB) HitRate() float64 {
	if b.Lookups == 0 {
		return 0
	}
	return float64(b.Hits) / float64(b.Lookups)
}

// RAS is a return address stack with wrap-around overflow, as in
// SimpleScalar: pushes beyond capacity overwrite the oldest entry.
type RAS struct {
	stack []uint64
	top   int
	depth int

	Pushes uint64
	Pops   uint64
}

// NewRAS builds a return-address stack with the given capacity.
func NewRAS(entries int) *RAS {
	return &RAS{stack: make([]uint64, entries)}
}

// Push records a call's return address.
func (r *RAS) Push(ret uint64) {
	r.Pushes++
	r.stack[r.top] = ret
	if r.top++; r.top == len(r.stack) {
		r.top = 0
	}
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the next return address; ok is false when the stack has
// underflowed.
func (r *RAS) Pop() (ret uint64, ok bool) {
	r.Pops++
	if r.depth == 0 {
		return 0, false
	}
	if r.top--; r.top < 0 {
		r.top = len(r.stack) - 1
	}
	r.depth--
	return r.stack[r.top], true
}

// Depth returns the current number of valid entries.
func (r *RAS) Depth() int { return r.depth }
