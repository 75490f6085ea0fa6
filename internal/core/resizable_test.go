package core

import (
	"testing"

	"resizecache/internal/cache"
	"resizecache/internal/geometry"
)

type stubNext struct{ latency uint64 }

func (s *stubNext) Access(now uint64, addr uint64, write bool) uint64 { return now + s.latency }
func (s *stubNext) Warm(addr uint64, write bool)                      {}
func (s *stubNext) Finalize(uint64)                                   {}
func (s *stubNext) EnergyPJ() float64                                 { return 0 }

func buildL1(t *testing.T, org Organization, p Policy) *ResizableCache {
	t.Helper()
	r, err := NewResizable(Options{
		Name: "L1d",
		// 32K 4-way: selective-sets offers 32K, 16K, 8K, 4K.
		Geom:       geometry.Geometry{SizeBytes: 32 << 10, Assoc: 4, BlockBytes: 32, SubarrayBytes: 1 << 10},
		Org:        org,
		Policy:     p,
		HitLatency: 1,
		Energy:     geometry.Default18um(),
	}, &stubNext{latency: 12})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewResizableProvisionsTagForSetOrgs(t *testing.T) {
	rw := buildL1(t, SelectiveWays, nil)
	if rw.C.Config().ProvisionTagForMinSets != 0 {
		t.Error("selective-ways should use a conventional tag array")
	}
	rs := buildL1(t, SelectiveSets, nil)
	if rs.C.Config().ProvisionTagForMinSets != rs.Sched.MinSets() {
		t.Error("selective-sets tag array not provisioned for min sets")
	}
	rh := buildL1(t, Hybrid, nil)
	if rh.C.Config().ProvisionTagForMinSets != rh.Sched.MinSets() {
		t.Error("hybrid tag array not provisioned for min sets")
	}
}

func TestWrapValidation(t *testing.T) {
	g := geometry.Geometry{SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 32, SubarrayBytes: 1 << 10}
	sched, _ := BuildSchedule(g, SelectiveSets)
	// Cache without provisioned tag must be rejected for a sets schedule.
	c, err := cache.New(cache.Config{Name: "x", Geom: g, HitLatency: 1,
		Energy: geometry.Default18um()}, &stubNext{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Wrap(c, sched, nil); err == nil {
		t.Fatal("missing tag provisioning accepted")
	}
	// Geometry mismatch must be rejected.
	g2 := g
	g2.SizeBytes = 16 << 10
	sched2, _ := BuildSchedule(g2, SelectiveWays)
	if _, err := Wrap(c, sched2, nil); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, err := Wrap(c, Schedule{}, nil); err == nil {
		t.Fatal("empty schedule accepted")
	}
}

func TestStaticPolicyAppliesPointAtBind(t *testing.T) {
	r := buildL1(t, SelectiveSets, &StaticPolicy{PointIndex: 2})
	if r.Index() != 2 {
		t.Fatalf("index = %d, want 2", r.Index())
	}
	want := r.Sched.Points[2]
	if r.C.EnabledBytes() != want.Bytes {
		t.Fatalf("enabled = %d, want %d", r.C.EnabledBytes(), want.Bytes)
	}
	// Static never moves: run accesses and confirm.
	now := uint64(0)
	for i := 0; i < 10000; i++ {
		now = r.Access(now, uint64(i*64), false)
	}
	if r.Index() != 2 {
		t.Fatal("static policy moved")
	}
	if len(r.SizeTrace) != 0 {
		t.Fatal("static policy should not record intervals")
	}
}

func TestSetIndexRangeCheck(t *testing.T) {
	r := buildL1(t, Hybrid, nil)
	if err := r.SetIndex(0, -1); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := r.SetIndex(0, len(r.Sched.Points)); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// Drive a dynamic policy with a tiny working set: every interval should
// see few misses, so the cache must walk down to its size bound.
func TestDynamicPolicyDownsizesOnLowMisses(t *testing.T) {
	p := &DynamicPolicy{Interval: 1000, MissBound: 20, SizeBoundBytes: 8 << 10}
	r := buildL1(t, SelectiveSets, p)
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		now = r.Access(now, uint64(i%16)*32, false) // 16-block working set
	}
	if got := r.Current().Bytes; got != 8<<10 {
		t.Fatalf("settled at %d bytes, want size bound 8K", got)
	}
	if r.C.Stat.Resizes.Value() == 0 {
		t.Fatal("no resizings recorded")
	}
	if len(r.SizeTrace) == 0 {
		t.Fatal("size trace empty")
	}
}

// A working set far larger than the cache should keep misses above bound,
// so a dynamic cache that starts small must walk back up to full size.
func TestDynamicPolicyUpsizesOnHighMisses(t *testing.T) {
	p := &DynamicPolicy{Interval: 1000, MissBound: 50}
	r := buildL1(t, SelectiveSets, p)
	if err := r.SetIndex(0, len(r.Sched.Points)-1); err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := 0; i < 30000; i++ {
		now = r.Access(now, uint64(i%4096)*32, false) // 128K streaming set
	}
	if r.Index() != 0 {
		t.Fatalf("index = %d, want 0 (full size)", r.Index())
	}
}

// Working set between two offered sizes: dynamic resizing must oscillate
// (the paper's "unavailable-size emulation").
func TestDynamicPolicyEmulatesUnavailableSize(t *testing.T) {
	// The interval must be long enough that resize-flush refills (~WS/2
	// misses) stay under the bound, or the controller thrashes at the top
	// of the schedule instead of tracking the working set.
	p := &DynamicPolicy{Interval: 2000, MissBound: 100}
	r := buildL1(t, SelectiveSets, p) // offers 32K, 16K, 8K, 4K
	now := uint64(0)
	// ~6K working set (192 blocks): too big for 4K, comfortable in 8K.
	for i := 0; i < 200000; i++ {
		now = r.Access(now, uint64(i%192)*32, false)
	}
	seen := map[int]bool{}
	for _, idx := range r.SizeTrace {
		seen[idx] = true
	}
	if !seen[2] || !seen[3] {
		t.Fatalf("expected oscillation between 8K and 4K, size trace visited %v", seen)
	}
	if r.C.Stat.Resizes.Value() < 4 {
		t.Fatalf("expected repeated resizing, got %d", r.C.Stat.Resizes.Value())
	}
}

func TestDynamicPolicySizeBoundBlocksDownsize(t *testing.T) {
	p := &DynamicPolicy{Interval: 100, MissBound: 1 << 60, SizeBoundBytes: 32 << 10}
	r := buildL1(t, SelectiveSets, p)
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		now = r.Access(now, 0, false)
	}
	if r.Index() != 0 {
		t.Fatal("size bound equal to full size must pin the cache")
	}
	if r.C.Stat.Resizes.Value() != 0 {
		t.Fatal("resizings counted despite bound")
	}
}

func TestResizableEnergyAndFinalize(t *testing.T) {
	r := buildL1(t, SelectiveWays, &StaticPolicy{PointIndex: 2})
	now := uint64(0)
	for i := 0; i < 1000; i++ {
		now = r.Access(now, uint64(i%8)*32, false)
	}
	r.Finalize(now)
	if r.EnergyPJ() <= 0 {
		t.Fatal("no energy recorded")
	}
	full := buildL1(t, SelectiveWays, &StaticPolicy{PointIndex: 0})
	now = 0
	for i := 0; i < 1000; i++ {
		now = full.Access(now, uint64(i%8)*32, false)
	}
	full.Finalize(now)
	if r.EnergyPJ() >= full.EnergyPJ() {
		t.Fatal("downsized ways must use less energy than full size")
	}
}

// With UpsizeHoldIntervals set, the controller must not downsize during
// the hold window after an upsize — the emulation hysteresis.
func TestDynamicPolicyUpsizeHold(t *testing.T) {
	p := &DynamicPolicy{Interval: 500, MissBound: 50, UpsizeHoldIntervals: 4}
	r := buildL1(t, SelectiveSets, p)
	// Force the cache small, then stream a large working set to trigger
	// an upsize, then a tiny working set: downsizes must wait out the
	// hold.
	if err := r.SetIndex(0, len(r.Sched.Points)-1); err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := 0; i < 1000; i++ { // one interval of heavy missing
		now = r.Access(now, uint64(i%4096)*32, false)
	}
	idxAfterUp := r.Index()
	if idxAfterUp >= len(r.Sched.Points)-1 {
		t.Fatal("no upsize happened")
	}
	// Two quiet intervals: within the hold, index must not increase
	// (no downsizing).
	for i := 0; i < 1000; i++ {
		now = r.Access(now, 0, false)
	}
	if r.Index() > idxAfterUp {
		t.Fatalf("downsized during hold window: %d -> %d", idxAfterUp, r.Index())
	}
	// After the hold expires, quiet traffic lets it walk back down.
	for i := 0; i < 4000; i++ {
		now = r.Access(now, 0, false)
	}
	if r.Index() <= idxAfterUp {
		t.Fatal("never downsized after hold expired")
	}
}
