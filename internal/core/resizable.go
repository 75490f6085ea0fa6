package core

import (
	"fmt"

	"resizecache/internal/cache"
)

// ResizableCache couples a cache array with an organization's schedule
// and a resizing policy. It implements cache.Level, so it drops into the
// hierarchy wherever a conventional cache would.
//
// Per-access flow: the policy's interval machinery observes every access
// and its hit/miss outcome; at interval boundaries the policy may request
// a step up or down the schedule, which ResizableCache applies with the
// organization's flush semantics (delegated to cache.Cache.SetEnabled).
type ResizableCache struct {
	C      *cache.Cache
	Sched  Schedule
	policy Policy

	idx int // current schedule index

	// Interval machinery (driven per access, in accesses as the paper's
	// dynamic framework specifies). intervalLen caches the policy's
	// IntervalLength at Wrap time — policies declare a fixed monitoring
	// interval, so the hot path pays a field read instead of an
	// interface call per access.
	intervalLen      uint64
	intervalAccesses uint64
	intervalMisses   uint64
	// trigger is the interval access count at which Access leaves its
	// fast path (see tick): the interval length, the hook's reach less
	// while a fork hook listens for the accesses before each boundary,
	// or never when no policy monitors intervals.
	trigger uint64

	// SizeTrace records the schedule index at each interval boundary;
	// experiments use it to classify behaviour (constant / varying /
	// emulating).
	SizeTrace []int
}

// Wrap couples an already-allocated cache with a schedule and policy.
// The cache must have been built at the schedule's full geometry, with
// ProvisionTagForMinSets set if the schedule shrinks sets; NewResizable
// does all of that from one Options value.
func Wrap(c *cache.Cache, sched Schedule, p Policy) (*ResizableCache, error) {
	if len(sched.Points) == 0 {
		return nil, fmt.Errorf("core: empty schedule")
	}
	if c.Config().Geom != sched.Geom {
		return nil, fmt.Errorf("core: cache geometry %v does not match schedule %v",
			c.Config().Geom, sched.Geom)
	}
	if sched.NeedsProvisionedTag() && c.Config().ProvisionTagForMinSets != sched.MinSets() {
		return nil, fmt.Errorf("core: schedule needs tag provisioned for %d sets, cache has %d",
			sched.MinSets(), c.Config().ProvisionTagForMinSets)
	}
	r := &ResizableCache{C: c, Sched: sched, policy: p}
	if p != nil {
		p.Bind(r)
		r.intervalLen = p.IntervalLength()
	}
	r.retrigger()
	return r, nil
}

// retrigger recomputes trigger from the interval length and the
// policy's fork hook.
func (r *ResizableCache) retrigger() {
	switch {
	case r.intervalLen == 0:
		r.trigger = ^uint64(0)
	case r.forkHooked() != nil:
		r.trigger = r.intervalLen - r.forkHooked().reach
	default:
		r.trigger = r.intervalLen
	}
}

// forkHooked returns the policy when it is a dynamic one with a fork
// hook, nil otherwise.
func (r *ResizableCache) forkHooked() *DynamicPolicy {
	if d, ok := r.policy.(*DynamicPolicy); ok && d.fork != nil {
		return d
	}
	return nil
}

// CopyFrom makes r's state a copy of src's: the cache array
// (cache.Cache.CopyFrom), the schedule index, the interval counters and
// the size trace. r keeps its own policy and next level; it must have
// been built from the same options as src.
//
//simlint:coldpath gang forks copy a machine a few times per interval
func (r *ResizableCache) CopyFrom(src *ResizableCache) {
	r.C.CopyFrom(src.C)
	r.idx = src.idx
	r.intervalAccesses, r.intervalMisses = src.intervalAccesses, src.intervalMisses
	r.SizeTrace = append(r.SizeTrace[:0], src.SizeTrace...)
}

// Policy returns the attached resizing policy (nil when none).
func (r *ResizableCache) Policy() Policy { return r.policy }

// Current returns the active size point.
func (r *ResizableCache) Current() SizePoint { return r.Sched.Points[r.idx] }

// Index returns the active schedule index.
func (r *ResizableCache) Index() int { return r.idx }

// SetIndex jumps to schedule point i at cycle now.
func (r *ResizableCache) SetIndex(now uint64, i int) error {
	if i < 0 || i >= len(r.Sched.Points) {
		return fmt.Errorf("core: schedule index %d out of range [0,%d)", i, len(r.Sched.Points))
	}
	p := r.Sched.Points[i]
	if _, err := r.C.SetEnabled(now, p.Sets, p.Ways); err != nil {
		return err
	}
	r.idx = i
	return nil
}

// Access implements cache.Level, threading each access through the
// policy's interval accounting.
//
//simlint:hotpath per-access wrapper for policy-driven caches
func (r *ResizableCache) Access(now uint64, addr uint64, write bool) uint64 {
	missesBefore := r.C.Stat.Misses.Value()
	done := r.C.Access(now, addr, write)
	r.intervalAccesses++
	if r.C.Stat.Misses.Value() != missesBefore {
		r.intervalMisses++
	}
	if r.intervalAccesses >= r.trigger {
		r.tick(now)
	}
	return done
}

// tick is Access past its trigger: at an interval boundary it has the
// policy decide, records the size and starts the next interval; the
// hook's reach of accesses before a boundary it lets a fork-hooked
// policy look ahead.
//
//simlint:coldpath the last few accesses of a policy interval, never per access
func (r *ResizableCache) tick(now uint64) {
	if r.intervalAccesses >= r.intervalLen {
		r.policy.OnInterval(now, r.intervalMisses)
		r.SizeTrace = append(r.SizeTrace, r.idx)
		r.intervalAccesses = 0
		r.intervalMisses = 0
	}
	if d := r.forkHooked(); d != nil && r.intervalAccesses == r.intervalLen-d.reach {
		d.beforeBoundary(r.intervalMisses)
	}
}

// Reaches implements cache.Reacher for the cache array.
//
//simlint:coldpath gang arms probe a few instructions per policy interval
func (r *ResizableCache) Reaches(addr uint64, depth int) bool { return r.C.Reaches(addr, depth) }

// Warm implements cache.Level: functional accesses advance the array's
// warm state but bypass the policy's interval accounting — dynamic
// policies observe only the detailed windows, so their resize decisions
// stay a pure function of the detailed access stream.
//
//simlint:hotpath per-access wrapper during fast-forward windows
func (r *ResizableCache) Warm(addr uint64, write bool) { r.C.Warm(addr, write) }

// Finalize implements cache.Level.
func (r *ResizableCache) Finalize(endCycle uint64) { r.C.Finalize(endCycle) }

// EnergyPJ implements cache.Level.
func (r *ResizableCache) EnergyPJ() float64 { return r.C.EnergyPJ() }
