package core

import (
	"fmt"
	"testing"
)

// referenceOnInterval is the dynamic controller as one method, before
// its decision was split from its application (with the one-step
// Upsize/Downsize helpers it called inlined): the oracle decide and
// OnInterval must reproduce. It acts on r and hold directly.
func referenceOnInterval(d *DynamicPolicy, r *ResizableCache, hold *int, now, misses uint64) {
	switch {
	case misses > d.MissBound:
		if r.Index() > 0 && r.SetIndex(now, r.Index()-1) == nil {
			*hold = d.UpsizeHoldIntervals
		}
	default:
		if *hold > 0 {
			*hold--
			return
		}
		next := r.Index() + 1
		if next >= len(r.Sched.Points) {
			return
		}
		if bound := d.SizeBoundBytes; bound > 0 && r.Sched.Points[next].Bytes < bound {
			return
		}
		_ = r.SetIndex(now, next) // a failed move leaves the index
	}
}

// TestDecideMatchesReference: over misses above, at and below the
// bound, the schedule index at 0, in the middle and at the last point,
// hold counts 0, 1 and 3, and size bounds that block the downsize or
// not, decide picks the index the reference controller moves to and
// keeps its hold count, and OnInterval leaves the cache and the hold
// where the reference does.
func TestDecideMatchesReference(t *testing.T) {
	const bound = 50
	// 32K 4-way selective-sets: 32K, 16K, 8K, 4K.
	for _, misses := range []uint64{bound + 1, bound, bound - 1} {
		for _, idx := range []int{0, 1, 3} {
			for _, hold := range []int{0, 1, 3} {
				// 16K blocks the move from 16K to 8K; 8K allows it.
				for _, sizeBound := range []int{0, 16 << 10, 8 << 10} {
					name := fmt.Sprintf("misses=%d/idx=%d/hold=%d/sb=%d", misses, idx, hold, sizeBound)
					t.Run(name, func(t *testing.T) {
						d := &DynamicPolicy{Interval: 1000, MissBound: bound,
							SizeBoundBytes: sizeBound, UpsizeHoldIntervals: 2}
						ref := buildL1(t, SelectiveSets, nil)
						if err := ref.SetIndex(0, idx); err != nil {
							t.Fatal(err)
						}
						refHold := hold
						referenceOnInterval(d, ref, &refHold, 0, misses)

						target, newHold := d.decide(ref.Sched.Points, idx, misses, hold)
						if target != ref.Index() || newHold != refHold {
							t.Errorf("decide = (%d, %d), reference moved to %d with hold %d",
								target, newHold, ref.Index(), refHold)
						}

						r := buildL1(t, SelectiveSets, d)
						if err := r.SetIndex(0, idx); err != nil {
							t.Fatal(err)
						}
						d.hold = hold
						d.OnInterval(0, misses)
						if r.Index() != ref.Index() || d.hold != refHold ||
							r.C.Stat.Resizes.Value() != ref.C.Stat.Resizes.Value() {
							t.Errorf("OnInterval left index %d hold %d resizes %d, reference %d, %d, %d",
								r.Index(), d.hold, r.C.Stat.Resizes.Value(),
								ref.Index(), refHold, ref.C.Stat.Resizes.Value())
						}
					})
				}
			}
		}
	}
}

// TestFollowersDetachOnFirstDisagreement: followers decide on the
// leader's inputs at every boundary; one that would move elsewhere
// detaches there with its own target, one that agrees stays attached
// and keeps its own hold count.
func TestFollowersDetachOnFirstDisagreement(t *testing.T) {
	leader := &DynamicPolicy{Interval: 100, MissBound: 10}
	same := &DynamicPolicy{Interval: 100, MissBound: 20}   // agrees at 5 misses
	pinned := &DynamicPolicy{Interval: 100, MissBound: 20, // blocked below 32K
		SizeBoundBytes: 32 << 10}
	holder := &DynamicPolicy{Interval: 100, MissBound: 10, UpsizeHoldIntervals: 3}
	r := buildL1(t, SelectiveSets, leader)
	leader.Follow(same)
	leader.Follow(pinned)
	leader.Follow(holder)

	leader.OnInterval(0, 5) // leader downsizes to 16K
	if r.Index() != 1 {
		t.Fatalf("leader at index %d, want 1", r.Index())
	}
	if _, ok := same.Detached(); ok {
		t.Error("agreeing follower detached")
	}
	if s, ok := pinned.Detached(); !ok || s != (Split{Boundary: 1, Target: 0}) {
		t.Errorf("pinned follower split = %+v, %v; want boundary 1 target 0", s, ok)
	}

	leader.OnInterval(0, 15) // 15 > 10: leader upsizes; 15 ≤ 20: same would downsize
	if s, ok := same.Detached(); !ok || s != (Split{Boundary: 2, Target: 2}) {
		t.Errorf("follower split = %+v, %v; want boundary 2 target 2", s, ok)
	}
	if s, _ := pinned.Detached(); s.Boundary != 1 {
		t.Errorf("detached follower re-split at %+v", s)
	}
	if _, ok := holder.Detached(); ok || holder.hold != 3 || leader.hold != 0 {
		t.Errorf("holder detached %v with hold %d (leader %d); want attached with its own hold 3",
			ok, holder.hold, leader.hold)
	}

	leader.OnInterval(0, 5) // leader downsizes; holder waits out its hold
	if s, ok := holder.Detached(); !ok || s != (Split{Boundary: 3, Target: 0}) {
		t.Errorf("holder split = %+v, %v; want boundary 3 target 0", s, ok)
	}
}

// recordingHook records the interval access count of the cache at each
// fork-hook call.
type recordingHook struct {
	r                *ResizableCache
	arms, boundaries []uint64
}

func (h *recordingHook) Arm()      { h.arms = append(h.arms, h.r.intervalAccesses) }
func (h *recordingHook) Boundary() { h.boundaries = append(h.boundaries, h.r.intervalAccesses) }

// TestForkHookArmsReachAhead: a hooked leader whose follower may decide
// differently arms its hook with reach accesses left in the interval,
// and reports the boundary at the access that ends it; once the
// follower has split, nothing arms again.
func TestForkHookArmsReachAhead(t *testing.T) {
	for _, reach := range []uint64{1, 3, 9} {
		t.Run(fmt.Sprint(reach), func(t *testing.T) {
			// Every access misses: the leader upsizes (staying at full
			// size), the follower would downsize.
			leader := &DynamicPolicy{Interval: 10, MissBound: 0}
			follower := &DynamicPolicy{Interval: 10, MissBound: 1 << 40}
			r := buildL1(t, SelectiveSets, leader)
			leader.Follow(follower)
			h := &recordingHook{r: r}
			leader.SetForkHook(h, reach)
			for i := range 30 {
				r.Access(uint64(i), uint64(i)<<20, false)
			}
			if want := []uint64{10 - reach}; fmt.Sprint(h.arms) != fmt.Sprint(want) {
				t.Errorf("armed at interval accesses %v, want %v", h.arms, want)
			}
			// The boundary access resets the interval before the hook hears of it.
			if fmt.Sprint(h.boundaries) != "[10]" {
				t.Errorf("boundaries reported at interval accesses %v, want [10]", h.boundaries)
			}
			if s, ok := follower.Detached(); !ok || s.Boundary != 1 {
				t.Errorf("follower split %+v, %v; want at boundary 1", s, ok)
			}
		})
	}
}
