package workload

import (
	"fmt"
	"testing"
)

// checkReplay fails unless src yields exactly the first n events of a
// fresh generator over prof, then reports exhaustion where the
// generator would.
func checkReplay(t *testing.T, name string, prof *Profile, src Source, n int) {
	t.Helper()
	g := NewGenerator(prof)
	var want, got Event
	for i := 0; i < n; i++ {
		okWant, okGot := g.Next(&want), src.Next(&got)
		if okWant != okGot {
			t.Fatalf("%s: event %d: generator ok=%v, replay ok=%v", name, i, okWant, okGot)
		}
		if !okWant {
			return
		}
		if got != want {
			t.Fatalf("%s: event %d = %+v, want %+v", name, i, got, want)
		}
	}
	if src.Next(&got) {
		t.Fatalf("%s: replay yielded an event past its %d", name, n)
	}
}

// TestRecordingReplaysGenerator: a recording's cursor yields exactly the
// generator's events for every registered profile and every length,
// two cursors replay independently, and a recording longer than a
// non-periodic profile stops where the generator runs dry, holding no
// room beyond it.
func TestRecordingReplaysGenerator(t *testing.T) {
	for _, name := range Names() {
		prof := MustGet(name)
		for _, n := range []int{0, 1, 40_000} {
			rec := Record(prof, uint64(n))
			if rec.Len() != n {
				t.Fatalf("%s: recorded %d events, want %d", name, rec.Len(), n)
			}
			label := fmt.Sprintf("%s/%d", name, n)
			checkReplay(t, label, prof, rec.Source(), n)
			checkReplay(t, label+"/second cursor", prof, rec.Source(), n)
		}
	}

	oneshot := &Profile{
		Name: "oneshot-record", LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.2, FloatFrac: 0.1,
		DepMeanDist: 3, BranchRandFrac: 0.5,
		Phases: []Phase{{Instructions: 1000,
			DLevels: []WSLevel{{Blocks: 16, Frac: 1}},
			ILevels: []WSLevel{{Blocks: 16, Frac: 1}}}},
	}
	rec := Record(oneshot, 5000)
	if rec.Len() != 1000 || cap(rec.recs) != 1000 {
		t.Fatalf("oneshot: recorded %d events in room for %d, want the profile's 1000 in 1000",
			rec.Len(), cap(rec.recs))
	}
	checkReplay(t, "oneshot", oneshot, rec.Source(), 5000)
}

// TestPackRejectsUnrepresentableEvents: events the packed format cannot
// hold are a generator bug, and pack panics instead of truncating them.
func TestPackRejectsUnrepresentableEvents(t *testing.T) {
	ok := Event{PC: 1<<32 - 4, Addr: 1 << 60, Kind: KindStore, Taken: true, Dep1: 48, Dep2: 1, Lat: 4}
	var ev Event
	if c := (&Recording{recs: []record{pack(ok)}}).Source(); !c.Next(&ev) || ev != ok {
		t.Fatalf("pack/Next round-tripped %+v to %+v", ok, ev)
	}
	bad := map[string]Event{
		"pc":           {PC: 1 << 32},
		"dep1":         {Dep1: 49},
		"negative dep": {Dep2: -1},
		"lat":          {Lat: takenBit},
	}
	for name, ev := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: pack accepted %+v", name, ev)
				}
			}()
			pack(ev)
		}()
	}
}

// TestCursorNextDoesNotAllocate: replaying a recording is allocation-free.
func TestCursorNextDoesNotAllocate(t *testing.T) {
	rec := Record(MustGet("gcc"), 4096)
	var src Source = rec.Source()
	var ev Event
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			src.Next(&ev)
		}
	})
	if allocs != 0 {
		t.Errorf("Cursor.Next allocated %.1f per run, want 0", allocs)
	}
}
