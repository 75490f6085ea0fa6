package workload

import "fmt"

// Recording is an immutable, packed copy of the first n events of a
// profile's stream. A design-space sweep simulates many cache
// configurations over the same few streams; recording each stream once
// and replaying it costs a few nanoseconds per event instead of a full
// generator step, and replays are bit-identical to the generator by
// construction. A Recording is safe for concurrent use: every replay
// reads it through its own Cursor.
type Recording struct {
	recs []record
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

// Record runs one generator pass over prof and keeps its first n events,
// or every event when a non-periodic profile ends sooner. It holds
// 16 B per recorded event; callers bound n.
func Record(prof *Profile, n uint64) *Recording {
	g := NewGenerator(prof)
	size := n
	if !prof.Periodic {
		size = min(n, prof.TotalPhaseInstructions())
	}
	recs := make([]record, 0, size)
	var ev Event
	for uint64(len(recs)) < n && g.Next(&ev) {
		recs = append(recs, pack(ev))
	}
	return &Recording{recs: recs}
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

// Source returns a new cursor at the start of the recording.
func (r *Recording) Source() *Cursor { return &Cursor{recs: r.recs} }

// Cursor replays a Recording as a Source. A Cursor is not safe for
// concurrent use; give each consumer its own.
type Cursor struct {
	recs []record
	i    int
}

// Next implements Source.
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
