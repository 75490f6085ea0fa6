package workload

import (
	"fmt"
	"reflect"
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

// step is one consumer call on a SkipSource: n events read, or a Skip(n).
type step struct {
	skip bool
	n    uint64
}

// drive makes steps' calls on src and logs every event it reads and
// every Skip result.
func drive(src SkipSource, steps []step) (evs []Event, skips []uint64) {
	var ev Event
	for _, s := range steps {
		if s.skip {
			skips = append(skips, src.Skip(s.n))
			continue
		}
		for i := uint64(0); i < s.n && src.Next(&ev); i++ {
			evs = append(evs, ev)
		}
	}
	return evs, skips
}

// TestCursorReplaysGaps: a Recorder passes a generator's events and
// skips through unchanged, and a Cursor over its recording replays
// exactly what the recorder saw — events, skip counts, and short skips
// where a non-periodic profile ran dry — in room sized up front.
func TestCursorReplaysGaps(t *testing.T) {
	oneshot := &Profile{
		Name: "oneshot-gaps", LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.2, FloatFrac: 0.1,
		DepMeanDist: 3, BranchRandFrac: 0.5,
		Phases: []Phase{
			{Instructions: 700, DLevels: []WSLevel{{Blocks: 16, Frac: 1}}, ILevels: []WSLevel{{Blocks: 16, Frac: 1}}},
			{Instructions: 600, DLevels: []WSLevel{{Blocks: 64, Frac: 1}}, ILevels: []WSLevel{{Blocks: 8, Frac: 1}}},
		},
	}
	for _, tc := range []struct {
		prof        *Profile
		steps       []step
		skips       []uint64
		events, gap int
	}{
		{MustGet("gcc"), []step{{false, 100}, {true, 500}, {false, 50}, {true, 0}, {true, 1_000}, {true, 7}, {false, 300}},
			[]uint64{500, 0, 1_000, 7}, 450, 3},
		// Dry inside a skip: 900 of 10K skipped, then a dry read and a
		// skip of nothing.
		{oneshot, []step{{false, 400}, {true, 10_000}, {false, 5}, {true, 10}}, []uint64{900, 0}, 400, 2},
		// Dry inside a read, then nothing to skip.
		{oneshot, []step{{false, 200}, {true, 900}, {false, 500}, {true, 3}}, []uint64{900, 0}, 400, 2},
	} {
		want, wantSkips := drive(NewGenerator(tc.prof), tc.steps)
		if !reflect.DeepEqual(wantSkips, tc.skips) {
			t.Fatalf("%s: generator skipped %v, want %v", tc.prof.Name, wantSkips, tc.skips)
		}
		r := NewRecorder(tc.prof, tc.events, tc.gap)
		got, gotSkips := drive(r, tc.steps)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSkips, wantSkips) {
			t.Fatalf("%s: recorder changed the stream: skips %v, generator %v", tc.prof.Name, gotSkips, wantSkips)
		}
		rec := r.Recording()
		if rec.Len() != tc.events || rec.Bytes() != RecordingBytes(tc.events, tc.gap) {
			t.Errorf("%s: %d events in %d B, want %d in %d B", tc.prof.Name,
				rec.Len(), rec.Bytes(), tc.events, RecordingBytes(tc.events, tc.gap))
		}
		for c := 0; c < 2; c++ {
			replay, replaySkips := drive(rec.Source(), tc.steps)
			if !reflect.DeepEqual(replay, want) || !reflect.DeepEqual(replaySkips, wantSkips) {
				t.Fatalf("%s cursor %d: skips %v, want %v", tc.prof.Name, c, replaySkips, wantSkips)
			}
		}
	}
}

// TestCursorStopsAtGaps: a cursor reads nothing past a recorded skip
// until the consumer makes it, seeks only within the run of events
// before it, and panics on a skip the recording does not hold.
func TestCursorStopsAtGaps(t *testing.T) {
	r := NewRecorder(MustGet("vpr"), 30, 1)
	drive(r, []step{{false, 20}, {true, 1_000}, {false, 10}})
	c := r.Recording().Source()
	c.Seek(15)
	var ev Event
	for i := 15; i < 20; i++ {
		if !c.Next(&ev) {
			t.Fatalf("event %d: cursor ran dry before the gap", i)
		}
	}
	if c.Next(&ev) {
		t.Fatal("cursor read past a gap it had not skipped")
	}
	for name, f := range map[string]func(){
		"wrong count": func() { r.Recording().Source().Skip(999) },
		"wrong place": func() { r.Recording().Source().Skip(1_000) },
		"seek past":   func() { r.Recording().Source().Seek(21) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	if n := c.Skip(1_000); n != 1_000 {
		t.Fatalf("gap replayed %d, want 1000", n)
	}
	for i := 0; i < 10; i++ {
		if !c.Next(&ev) {
			t.Fatalf("event %d after the gap missing", i)
		}
	}
	if c.Next(&ev) || c.Skip(0) != 0 {
		t.Fatal("cursor yielded past the end of its recording")
	}
}
