package workload

import (
	"fmt"
	"unsafe"
)

// Recording is an immutable, packed copy of the stream a consumer drew
// from a generator: every event it read, and every Skip it made as a
// gap. A design-space sweep simulates many cache configurations over the
// same few streams; recording each stream once and replaying it costs a
// few nanoseconds per event instead of a full generator step, and
// replays are bit-identical to the generator by construction. A skip is
// a state jump, not a run of events (see Generator.Skip), so a replay
// can only stand in for a generator whose consumer makes the recorded
// calls in the recorded order — which a deterministic consumer, such as
// a sampling schedule, does. A Recording is safe for concurrent use:
// every replay reads it through its own Cursor.
type Recording struct {
	recs []record
	gaps []gap
}

// record is one packed event: 16 bytes instead of Event's 32. The
// generator keeps PCs inside the code regions below 4 GiB and dependence
// distances at most 48 (depDistance), so both fit narrower fields; Lat
// shares a byte with the Taken flag.
type record struct {
	addr       uint64
	pc         uint32
	dep1, dep2 uint8
	kind       Kind
	latTaken   uint8 // Lat in the low seven bits, Taken in the top bit
}

const takenBit = 0x80

// gap is one recorded Skip: where it happened, what the consumer asked
// for, and what the generator skipped — short when a non-periodic
// profile ran dry.
type gap struct {
	at        int // events recorded before the skip
	want, got uint64
}

// RecordingBytes is the memory a recording of events events and gaps
// gaps holds.
func RecordingBytes(events, gaps int) int64 {
	return int64(events)*int64(unsafe.Sizeof(record{})) + int64(gaps)*int64(unsafe.Sizeof(gap{}))
}

// Recorder is a Source with Skip over a generator that keeps what its
// consumer draws: the events as a Recording's records, the skips as its
// gaps. Sized up front, it allocates once.
type Recorder struct {
	g   *Generator
	rec Recording
}

// NewRecorder returns a recorder over a fresh generator for prof, with
// room for events events and gaps skips.
func NewRecorder(prof *Profile, events, gaps int) *Recorder {
	return &Recorder{g: NewGenerator(prof), rec: Recording{
		recs: make([]record, 0, events),
		gaps: make([]gap, 0, gaps),
	}}
}

// Next implements Source, recording the event.
func (r *Recorder) Next(ev *Event) bool {
	if !r.g.Next(ev) {
		return false
	}
	r.rec.recs = append(r.rec.recs, pack(*ev))
	return true
}

// Skip is Generator.Skip, recorded as a gap. Like Generator.Skip(0),
// Skip(0) is a no-op and records nothing.
func (r *Recorder) Skip(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	got := r.g.Skip(n)
	r.rec.gaps = append(r.rec.gaps, gap{at: len(r.rec.recs), want: n, got: got})
	return got
}

// Snapshot returns the generator's state at the current position.
func (r *Recorder) Snapshot() Snapshot { return r.g.Snapshot() }

// Recording returns what has been recorded so far. The recorder must
// not be used afterwards.
func (r *Recorder) Recording() *Recording { return &r.rec }

// Record runs one generator pass over prof and keeps its first n events,
// or every event when a non-periodic profile ends sooner. It holds
// 16 B per recorded event; callers bound n.
func Record(prof *Profile, n uint64) *Recording {
	size := n
	if !prof.Periodic {
		size = min(n, prof.TotalPhaseInstructions())
	}
	r := NewRecorder(prof, int(size), 0)
	var ev Event
	for i := uint64(0); i < n && r.Next(&ev); i++ {
	}
	return r.Recording()
}

// pack narrows an event into a record. It panics on an event the
// generator cannot produce, since only a generator bug leads there.
func pack(ev Event) record {
	if ev.PC>>32 != 0 || uint32(ev.Dep1) > 48 || uint32(ev.Dep2) > 48 || ev.Lat >= takenBit {
		panic(fmt.Sprintf("workload: event %+v does not fit a packed record", ev))
	}
	r := record{addr: ev.Addr, pc: uint32(ev.PC), dep1: uint8(ev.Dep1), dep2: uint8(ev.Dep2),
		kind: ev.Kind, latTaken: ev.Lat}
	if ev.Taken {
		r.latTaken |= takenBit
	}
	return r
}

// Len returns the number of recorded events.
func (r *Recording) Len() int { return len(r.recs) }

// Bytes returns the memory the recording holds.
func (r *Recording) Bytes() int64 { return RecordingBytes(cap(r.recs), cap(r.gaps)) }

// Source returns a new cursor at the start of the recording.
func (r *Recording) Source() *Cursor {
	c := &Cursor{r: r}
	c.setEnd()
	return c
}

// Cursor replays a Recording as a Source with Skip. A Cursor is not safe
// for concurrent use; give each consumer its own.
type Cursor struct {
	r    *Recording
	recs []record // r.recs up to the next gap
	i    int      // next event
	g    int      // next gap
}

// setEnd stops Next at the next gap, so a consumer can never read past a
// skip it has not made.
func (c *Cursor) setEnd() {
	end := len(c.r.recs)
	if c.g < len(c.r.gaps) {
		end = c.r.gaps[c.g].at
	}
	c.recs = c.r.recs[:end]
}

// Next implements Source. It reports false at the end of the recording,
// and at a recorded gap until Skip crosses it.
//
//simlint:hotpath per-instruction replay of a recorded stream
func (c *Cursor) Next(ev *Event) bool {
	if c.i >= len(c.recs) {
		return false
	}
	r := &c.recs[c.i]
	c.i++
	ev.PC = uint64(r.pc)
	ev.Addr = r.addr
	ev.Kind = r.kind
	ev.Taken = r.latTaken&takenBit != 0
	ev.Dep1 = int32(r.dep1)
	ev.Dep2 = int32(r.dep2)
	ev.Lat = r.latTaken &^ takenBit
	return true
}

// Skip replays the recorded gap at the cursor, returning what the
// generator skipped there. Skip(0) is a no-op, as on a generator. Any
// other skip the recording does not hold at this position panics: the
// consumer has left the recorded schedule, which only a bug in it can
// do.
func (c *Cursor) Skip(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	if c.g >= len(c.r.gaps) || c.r.gaps[c.g].at != c.i || c.r.gaps[c.g].want != n {
		panic(fmt.Sprintf("workload: Skip(%d) after event %d is not in the recording", n, c.i))
	}
	got := c.r.gaps[c.g].got
	c.g++
	c.setEnd()
	return got
}

// Seek moves the cursor forward to event i, which must not lie past the
// next gap; it panics otherwise.
func (c *Cursor) Seek(i int) {
	if i < c.i || i > len(c.recs) {
		panic(fmt.Sprintf("workload: Seek(%d) outside events %d..%d", i, c.i, len(c.recs)))
	}
	c.i = i
}
