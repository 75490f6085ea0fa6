package core

import "fmt"

// Policy is a resizing strategy. Bind attaches it to the cache it
// controls; IntervalLength returns the monitoring interval in accesses
// (0 disables interval callbacks); OnInterval is invoked at each interval
// boundary with the miss count of the elapsed interval.
type Policy interface {
	Name() string
	Bind(r *ResizableCache)
	IntervalLength() uint64
	OnInterval(now uint64, misses uint64)
}

// StaticPolicy fixes the cache at one schedule point for the whole run —
// the paper's static resizing strategy, where profiling selects the point
// before execution and the OS loads the size mask at launch.
type StaticPolicy struct {
	// PointIndex is the schedule index to run at.
	PointIndex int
	r          *ResizableCache
}

// Name implements Policy.
func (s *StaticPolicy) Name() string { return "static" }

// Bind applies the fixed configuration immediately (cycle 0).
func (s *StaticPolicy) Bind(r *ResizableCache) {
	s.r = r
	// An invalid index is a programming error surfaced by SetIndex; keep
	// the cache at full size in that case.
	_ = r.SetIndex(0, s.PointIndex)
}

// IntervalLength implements Policy; static resizing needs no monitoring.
func (s *StaticPolicy) IntervalLength() uint64 { return 0 }

// OnInterval implements Policy.
func (s *StaticPolicy) OnInterval(uint64, uint64) {}

// DynamicPolicy is the miss-ratio-based dynamic resizing framework of
// Yang et al. (HPCA-7), as evaluated by the paper: hardware counts misses
// over fixed-length intervals (measured in cache accesses); at each
// boundary the cache upsizes one step when interval misses exceed
// MissBound and downsizes one step when they fall below, never shrinking
// under SizeBoundBytes. Both parameters come from offline profiling.
//
// The decision at a boundary is a pure function of the interval's
// misses, the schedule index and the policy's own hold count (decide),
// so policies that differ only in their thresholds can share one cache
// while they agree: a bound policy may carry followers (Follow), which
// decide on the same inputs at every boundary and detach the first time
// their target differs from the leader's.
type DynamicPolicy struct {
	// Interval is the monitoring window in cache accesses.
	Interval uint64
	// MissBound is the miss-count threshold per interval.
	MissBound uint64
	// SizeBoundBytes is the smallest capacity dynamic resizing may reach
	// (the thrash guard). Zero means the schedule minimum.
	SizeBoundBytes int
	// UpsizeHoldIntervals suppresses downsizing for this many intervals
	// after an upsize — the hysteresis that lets the controller "spend a
	// while at the larger size" when emulating a size between two
	// offered points (paper §4.2.1), instead of thrashing 50/50.
	UpsizeHoldIntervals int

	r         *ResizableCache
	hold      int
	intervals int // boundaries seen

	followers []*DynamicPolicy // the attached ones
	split     Split            // where this follower left its leader; zero while attached
	fork      ForkHook         // nil unless a gang forks this leader's machine at splits
	reach     uint64           // the most accesses one instruction makes to the cache (SetForkHook)
	armed     bool             // the hook is armed for the coming boundary
}

// ForkHook lets a gang fork a leader's machine inside its one pass
// where followers split (internal/sim). Both calls come from inside an
// access to the leader's cache.
type ForkHook interface {
	// Arm: the cache has reach accesses left before the end of an
	// interval at which some attached follower may decide differently
	// from the leader. No instruction makes more than reach accesses to
	// the cache, so the one that ends the interval has not started yet,
	// and the gang can snapshot the machine at the start of each
	// instruction that may reach the cache until then.
	Arm()
	// Boundary: this access ended the armed interval, and the hook is
	// disarmed. Followers that decided differently there have detached:
	// Detached reports their splits, and the leader no longer carries
	// them.
	Boundary()
}

// Split is where a follower left its leader: the interval boundary,
// counted from 1, at which its own decision first differed, and the
// schedule index it chose there.
type Split struct {
	Boundary int
	Target   int
}

// Name implements Policy.
func (d *DynamicPolicy) Name() string { return "dynamic" }

// Bind implements Policy; dynamic resizing starts at full size.
func (d *DynamicPolicy) Bind(r *ResizableCache) { d.r = r }

// IntervalLength implements Policy.
func (d *DynamicPolicy) IntervalLength() uint64 { return d.Interval }

// Follow attaches f as a follower of d. f must share d's Interval and
// schedule; it is never bound to a cache of its own.
func (d *DynamicPolicy) Follow(f *DynamicPolicy) { d.followers = append(d.followers, f) }

// SetForkHook has d, bound and leading, report to h where its machine
// may fork (see ForkHook); nil stops the reports. reach is the most
// accesses one instruction can make to d's cache, at least 1 and less
// than the interval: the hook is armed that many accesses before a
// boundary, after an access of the interval.
func (d *DynamicPolicy) SetForkHook(h ForkHook, reach uint64) {
	if h != nil && (reach == 0 || reach >= d.Interval) {
		panic(fmt.Sprintf("core: fork reach %d outside [1, interval %d)", reach, d.Interval))
	}
	d.fork, d.reach, d.armed = h, reach, false
	d.r.retrigger()
}

// Fork makes fs — followers that detached from one leader at the
// boundary it just passed, all to one target — a new share group over
// r, a copy of the leader's cache from before the instruction that
// crossed the boundary: fs[0] leads it, reporting to h with the
// leader's reach, and the rest follow. Replaying that instruction on r
// brings fs[0] to the boundary as a leader in exactly the state it
// would have reached leading from the start: a follower that agreed
// through every earlier boundary has kept its own hold count, and r's
// trajectory was its own.
func Fork(r *ResizableCache, fs []*DynamicPolicy, h ForkHook, reach uint64) {
	lead := fs[0]
	lead.intervals = lead.split.Boundary - 1
	for _, f := range fs {
		f.split = Split{}
	}
	lead.followers = append(lead.followers[:0], fs[1:]...)
	lead.r = r
	r.policy = lead
	lead.SetForkHook(h, reach)
}

// Detached reports where a follower left its leader, and false while it
// is still attached (its run equals the leader's).
func (d *DynamicPolicy) Detached() (Split, bool) { return d.split, d.split.Boundary > 0 }

// decide is the controller's decision after an interval with misses at
// schedule index idx of points, with hold intervals of hysteresis left:
// the index to move to (idx to stay) and the hold count to keep once
// the move is applied. Upsizing at index 0 is a no-op that leaves the
// hold alone; the hold is set only by an upsize.
func (d *DynamicPolicy) decide(points []SizePoint, idx int, misses uint64, hold int) (target, newHold int) {
	if misses > d.MissBound {
		if idx == 0 {
			return idx, hold
		}
		return idx - 1, d.UpsizeHoldIntervals
	}
	if hold > 0 {
		return idx, hold - 1
	}
	next := idx + 1
	if next >= len(points) {
		return idx, hold
	}
	if bound := d.SizeBoundBytes; bound > 0 && points[next].Bytes < bound {
		return idx, hold
	}
	return next, hold
}

// OnInterval implements Policy: it applies its own decision, then has
// every attached follower decide on the same inputs. A move that fails
// to apply keeps the old hold count, for the leader and its followers
// alike. Followers that decide differently detach here, and the fork
// hook, if any, hears of it.
func (d *DynamicPolicy) OnInterval(now uint64, misses uint64) {
	points := d.r.Sched.Points
	idx := d.r.Index()
	target, hold := d.decide(points, idx, misses, d.hold)
	applied := target == idx || d.r.SetIndex(now, target) == nil
	if applied {
		d.hold = hold
	}
	d.intervals++
	kept := d.followers[:0]
	for _, f := range d.followers {
		ft, fh := f.decide(points, idx, misses, f.hold)
		if ft != target {
			f.split = Split{Boundary: d.intervals, Target: ft}
			continue
		}
		if applied {
			f.hold = fh
		}
		kept = append(kept, f)
	}
	split := len(kept) < len(d.followers)
	clear(d.followers[len(kept):])
	d.followers = kept
	switch {
	case d.armed:
		d.armed = false
		d.fork.Boundary()
	case split && d.fork != nil:
		panic("core: followers split at a boundary the fork hook was not armed for")
	}
}

// beforeBoundary is called when d's cache has reach accesses left in
// an interval that has seen misses so far: the boundary will see
// between misses and misses+reach. It arms the fork hook when, for any
// of those counts, some attached follower's target differs from d's.
//
//simlint:coldpath once per policy interval, from ResizableCache.tick
func (d *DynamicPolicy) beforeBoundary(misses uint64) {
	points, idx := d.r.Sched.Points, d.r.Index()
	for m := misses; m <= misses+d.reach; m++ {
		target, _ := d.decide(points, idx, m, d.hold)
		for _, f := range d.followers {
			if ft, _ := f.decide(points, idx, m, f.hold); ft != target {
				d.armed = true
				d.fork.Arm()
				return
			}
		}
	}
}
