package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace file format: a compact binary encoding of an event stream so
// generated workloads can be exported (cmd/tracegen), inspected, or
// replayed without the generator.
//
// Layout (little-endian):
//
//	magic   [4]byte  "RCT1"
//	nameLen uint16   benchmark name length
//	name    []byte
//	count   uint64   number of events
//	events  count × record
//
// record:
//
//	pc    uint64
//	addr  uint64
//	kind  uint8
//	flags uint8 (bit0 = taken)
//	dep1  uint16
//	dep2  uint16
//	lat   uint8
//	pad   uint8
const traceMagic = "RCT1"

// TraceWriter streams events to w.
type TraceWriter struct {
	w     *bufio.Writer
	count uint64
	done  bool
}

// NewTraceWriter writes the header for a trace of count events.
func NewTraceWriter(w io.Writer, name string, count uint64) (*TraceWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if len(name) > 0xFFFF {
		return nil, errors.New("workload: trace name too long")
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], count)
	if _, err := bw.Write(cnt[:]); err != nil {
		return nil, err
	}
	return &TraceWriter{w: bw, count: count}, nil
}

// Write appends one event.
func (t *TraceWriter) Write(ev *Event) error {
	if t.done {
		return errors.New("workload: trace already complete")
	}
	var rec [24]byte
	binary.LittleEndian.PutUint64(rec[0:], ev.PC)
	binary.LittleEndian.PutUint64(rec[8:], ev.Addr)
	rec[16] = byte(ev.Kind)
	if ev.Taken {
		rec[17] = 1
	}
	binary.LittleEndian.PutUint16(rec[18:], uint16(ev.Dep1))
	binary.LittleEndian.PutUint16(rec[20:], uint16(ev.Dep2))
	rec[22] = ev.Lat
	if _, err := t.w.Write(rec[:]); err != nil {
		return err
	}
	t.count--
	if t.count == 0 {
		t.done = true
	}
	return nil
}

// Flush completes the trace; it errors if fewer events were written than
// declared.
func (t *TraceWriter) Flush() error {
	if !t.done {
		return fmt.Errorf("workload: trace incomplete, %d events missing", t.count)
	}
	return t.w.Flush()
}

// TraceReader replays a trace file.
type TraceReader struct {
	r         *bufio.Reader
	Name      string
	Count     uint64
	remaining uint64
}

// NewTraceReader parses the header.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %q", magic)
	}
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	name := make([]byte, binary.LittleEndian.Uint16(hdr[:]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	return &TraceReader{r: br, Name: string(name), Count: n, remaining: n}, nil
}

// Next fills ev with the next record; returns false at end of trace.
func (t *TraceReader) Next(ev *Event) (bool, error) {
	if t.remaining == 0 {
		return false, nil
	}
	var rec [24]byte
	if _, err := io.ReadFull(t.r, rec[:]); err != nil {
		return false, fmt.Errorf("workload: truncated trace: %w", err)
	}
	ev.PC = binary.LittleEndian.Uint64(rec[0:])
	ev.Addr = binary.LittleEndian.Uint64(rec[8:])
	ev.Kind = Kind(rec[16])
	ev.Taken = rec[17]&1 == 1
	ev.Dep1 = int32(binary.LittleEndian.Uint16(rec[18:]))
	ev.Dep2 = int32(binary.LittleEndian.Uint16(rec[20:]))
	ev.Lat = rec[22]
	t.remaining--
	return true, nil
}

// Source is anything that yields an event stream: a live Generator, a
// Cursor over a Recording, or a TraceReader wrapped by ReplaySource.
type Source interface {
	Next(ev *Event) bool
}

// SkipSource is a Source a sampled run can skip through: a Generator, a
// Recorder over one, or a Cursor replaying a Recording.
type SkipSource interface {
	Source
	Skip(n uint64) uint64
}

// ReplaySource adapts TraceReader to Source, surfacing I/O errors via Err.
type ReplaySource struct {
	R   *TraceReader
	err error
}

// Next implements Source.
func (s *ReplaySource) Next(ev *Event) bool {
	ok, err := s.R.Next(ev)
	if err != nil {
		s.err = err
		return false
	}
	return ok
}

// Err returns the first I/O error encountered, if any.
func (s *ReplaySource) Err() error { return s.err }
