package sim

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"resizecache/internal/workload"
)

// maxRecordedInstructions caps the events one recording holds: 2^18
// events, 4 MiB of packed records. It covers what the short budgets a
// design-space sweep repeats thousands of times consume — a detailed
// run's whole budget, a sampled run's warmup, windows and fast-forwards
// but not its skips. Longer streams run on a live generator, so a large
// budget costs no more memory than it did before recording existed.
const maxRecordedInstructions = 1 << 18

// maxRecordingBytes is one recording's share of a memo's bound.
var maxRecordingBytes = workload.RecordingBytes(maxRecordedInstructions, 0)

// Streams memoizes recorded workload streams for a sequence of
// simulations. A sweep runs many configurations over a handful of
// streams — one per (benchmark, instruction budget, sampling schedule)
// — so Streams records each with one generator pass and hands out
// replays of it, instead of regenerating the stream for every
// simulation or gang. A detailed run's recording is the first n events
// of the stream; a sampled run's is what its schedule consumes — the
// warmup, windows and fast-forwards as events, the skips as gaps — plus
// the generator state a warmup checkpoint saves. Results are
// bit-identical either way.
//
// Only repeated streams are recorded: the first request for a stream
// runs a live generator and the second records it, so one-off traffic
// pays neither the recording pass nor its memory. Streams whose
// recording would exceed maxRecordedInstructions events always run
// live. Recording is single-flight: concurrent callers asking for one
// stream share one recording pass. The memo is bounded in bytes: every
// tracked stream is charged its recording's size from its first
// request, and the least recently used are evicted until the charges
// fit limit × 4 MiB, however many streams that is. A Streams is safe
// for concurrent use. A nil *Streams is valid and runs every simulation
// on a live generator.
type Streams struct {
	maxBytes int64

	mu    sync.Mutex
	recs  map[streamKey]*streamEntry
	lru   *list.List // of streamKey; front = most recently used
	bytes int64      // Σ charge over recs

	recorded atomic.Int64 // recording passes run
	replays  atomic.Int64 // replays handed out
}

type streamKey struct {
	prof *workload.Profile
	n    uint64
	spec SamplingSpec
}

// streamEntry tracks one stream from its first request; it is recorded
// on its second.
type streamEntry struct {
	once   sync.Once
	shape  streamShape
	charge int64
	rec    *recording
	elem   *list.Element
}

// recording is one memoized stream. For a sampled stream it also keeps
// the generator state at the end of the warmup prefix, which is what a
// warmup checkpoint saves.
type recording struct {
	*workload.Recording
	warm workload.Snapshot
}

// NewStreams returns an empty memo holding at most limit × 4 MiB of
// recordings (limits below 1 mean 1). A runner passes its worker
// count: each worker replays one stream at a time, and the byte bound
// fits every recordable stream a worker can be replaying.
func NewStreams(limit int) *Streams {
	return &Streams{
		maxBytes: int64(max(limit, 1)) * maxRecordingBytes,
		recs:     make(map[streamKey]*streamEntry),
		lru:      list.New(),
	}
}

// recording returns the memoized stream a run of n instructions of prof
// under spec consumes, or nil when it should run live: on its first
// request, or when its recording would hold more than
// maxRecordedInstructions events.
func (s *Streams) recording(prof *workload.Profile, n uint64, spec SamplingSpec) *recording {
	k := streamKey{prof, n, spec}
	s.mu.Lock()
	e, ok := s.recs[k]
	if !ok {
		sh := planStream(prof, n, spec)
		if charge := sh.bytes(); charge <= maxRecordingBytes {
			s.recs[k] = &streamEntry{shape: sh, charge: charge, elem: s.lru.PushFront(k)}
			s.bytes += charge
			for s.bytes > s.maxBytes {
				old := s.lru.Remove(s.lru.Back()).(streamKey)
				s.bytes -= s.recs[old].charge
				delete(s.recs, old)
			}
		}
		s.mu.Unlock()
		return nil
	}
	s.lru.MoveToFront(e.elem)
	s.mu.Unlock()
	// An entry evicted while its first caller still records it stays
	// valid for everyone already holding it.
	e.once.Do(func() {
		e.rec = record(prof, n, spec, e.shape)
		s.recorded.Add(1)
	})
	return e.rec
}

// stream returns a fresh read of the stream a run of n instructions of
// prof under spec consumes: a replay of the memoized recording, or a
// live generator when s is nil or has no recording to offer.
func (s *Streams) stream(prof *workload.Profile, n uint64, spec SamplingSpec) stream {
	if s != nil {
		if rec := s.recording(prof, n, spec); rec != nil {
			s.replays.Add(1)
			cur := rec.Source()
			return stream{src: cur, cur: cur, rec: rec}
		}
	}
	gen := workload.NewGenerator(prof)
	return stream{src: gen, gen: gen}
}

// stream is what one engine pass reads: a live generator, or a cursor
// over a recording of what one yields to the same run.
type stream struct {
	src workload.SkipSource // gen or cur
	gen *workload.Generator
	cur *workload.Cursor
	rec *recording // cur's recording
}

// resume moves the stream to the end of a checkpoint's warmup prefix;
// the caller has checked p.Consumed against the stream.
func (s stream) resume(p checkpointPayload) {
	if s.gen != nil {
		s.gen.Restore(p.Gen)
		return
	}
	s.cur.Seek(int(p.Consumed))
}

// warmState returns the generator state a checkpoint of the warmup
// prefix saves; call it at the end of the prefix.
func (s stream) warmState() workload.Snapshot {
	if s.gen != nil {
		return s.gen.Snapshot()
	}
	return s.rec.warm
}

// streamShape is what a recording holds: its events and gaps.
type streamShape struct{ events, gaps uint64 }

// bytes is the recording's size, or math.MaxInt64 when it would hold
// more than maxRecordedInstructions events. Every skip follows a window
// of at least one event, so gaps never outnumber events.
func (sh streamShape) bytes() int64 {
	if sh.events > maxRecordedInstructions {
		return math.MaxInt64
	}
	return workload.RecordingBytes(int(sh.events), int(sh.gaps))
}

// streamLen is how many instructions prof's stream holds, counting the
// skipped ones.
func streamLen(prof *workload.Profile) uint64 {
	if prof.Periodic {
		return math.MaxUint64
	}
	return prof.TotalPhaseInstructions()
}

// planStream sizes the recording of what a run of n instructions of
// prof under spec consumes, by a dry pass of the schedule over the
// stream's length. The pass stops counting past the cap, so it is
// short whatever the budget.
func planStream(prof *workload.Profile, n uint64, spec SamplingSpec) streamShape {
	d := dryRun{end: streamLen(prof)}
	if !spec.Enabled() {
		d.window(n)
		return d.shape
	}
	sampleSchedule(spec, n, d.window(spec.WarmupInstructions), &d)
	return d.shape
}

// record runs one recording pass: the events and skips a run of n
// instructions of prof under spec consumes, in room sized by sh.
func record(prof *workload.Profile, n uint64, spec SamplingSpec, sh streamShape) *recording {
	if !spec.Enabled() {
		return &recording{Recording: workload.Record(prof, n)}
	}
	r := workload.NewRecorder(prof, int(sh.events), int(sh.gaps))
	warmed := drain(r, spec.WarmupInstructions)
	warm := r.Snapshot()
	sampleSchedule(spec, n, warmed, recordSteps{r})
	return &recording{Recording: r.Recording(), warm: warm}
}

// drain reads up to n events from src, returning how many it read.
func drain(src workload.Source, n uint64) uint64 {
	var (
		ev workload.Event
		k  uint64
	)
	for k < n && src.Next(&ev) {
		k++
	}
	return k
}

// dryRun steps a schedule through a stream of end instructions without
// generating it, counting what a recording of the pass holds.
type dryRun struct {
	pos, end uint64
	shape    streamShape
}

func (d *dryRun) take(n uint64) uint64 {
	k := min(n, d.end-d.pos)
	d.pos += k
	return k
}

func (d *dryRun) window(n uint64) uint64 {
	if d.shape.events > maxRecordedInstructions {
		return 0 // too long to record; ends the schedule
	}
	k := d.take(n)
	d.shape.events += min(k, maxRecordedInstructions+1) // no wrap past the cap
	return k
}

func (d *dryRun) fastForward(n uint64) uint64 { return d.window(n) }

func (d *dryRun) skip(n uint64) uint64 {
	d.shape.gaps++
	return d.take(n)
}

// recordSteps steps a schedule through a recorder: windows and
// fast-forwards become events, skips gaps.
type recordSteps struct{ r *workload.Recorder }

func (s recordSteps) window(n uint64) uint64      { return drain(s.r, n) }
func (s recordSteps) fastForward(n uint64) uint64 { return drain(s.r, n) }
func (s recordSteps) skip(n uint64) uint64        { return s.r.Skip(n) }
