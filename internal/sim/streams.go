package sim

import (
	"container/list"
	"sync"

	"resizecache/internal/workload"
)

// maxRecordedInstructions is the longest stream a Streams records:
// 2^18 events, 4 MiB of packed records. It covers the short budgets a
// design-space sweep repeats thousands of times; longer streams run on
// a live generator, so a large budget costs no more memory than it did
// before recording existed.
const maxRecordedInstructions = 1 << 18

// Streams memoizes recorded workload streams for a sequence of detailed
// simulations. A sweep runs many configurations over a handful of
// streams — one per (benchmark, instruction budget) — so Streams records
// each with one generator pass and hands out replays of it, instead of
// regenerating the stream for every simulation or gang. Results are
// bit-identical either way.
//
// Only repeated streams are recorded: the first request for a stream
// runs a live generator and the second records it, so one-off traffic
// pays neither the recording pass nor its memory. Streams longer than
// maxRecordedInstructions always run live. Recording is single-flight:
// concurrent callers asking for one stream share one recording pass. At
// most limit streams stay tracked, the least recently used evicted
// first, so the memo holds at most limit × 4 MiB. A Streams is safe for
// concurrent use. A nil *Streams is valid and runs every simulation on
// a live generator.
type Streams struct {
	limit int

	mu   sync.Mutex
	recs map[streamKey]*streamEntry
	lru  *list.List // of streamKey; front = most recently used
}

type streamKey struct {
	prof *workload.Profile
	n    uint64
}

// streamEntry tracks one stream from its first request; it is recorded
// on its second.
type streamEntry struct {
	once sync.Once
	rec  *workload.Recording
	elem *list.Element
}

// NewStreams returns an empty memo tracking at most limit streams
// (values below 1 mean 1). A runner sizes it to its worker count: each
// worker replays one stream at a time.
func NewStreams(limit int) *Streams {
	return &Streams{
		limit: max(limit, 1),
		recs:  make(map[streamKey]*streamEntry),
		lru:   list.New(),
	}
}

// Run is RunWithCheckpoints, with detailed runs replaying s's
// recordings. Sampled runs use a live generator, since they Skip.
func (s *Streams) Run(cfg Config, cs CheckpointStore) (Result, WarmupStats, error) {
	return run(cfg, cs, s)
}

// RunGang is RunGangWithCheckpoints, with detailed gangs replaying s's
// recordings. Sampled gangs use a live generator, since they Skip.
func (s *Streams) RunGang(cfgs []Config, cs CheckpointStore) ([]Result, WarmupStats, error) {
	return runGang(cfgs, cs, s)
}

// recording returns the recorded first n events of prof's stream, or
// nil when the stream should run live: on its first request, or when it
// is longer than maxRecordedInstructions.
func (s *Streams) recording(prof *workload.Profile, n uint64) *workload.Recording {
	if n > maxRecordedInstructions {
		return nil
	}
	k := streamKey{prof, n}
	s.mu.Lock()
	e, ok := s.recs[k]
	if !ok {
		s.recs[k] = &streamEntry{elem: s.lru.PushFront(k)}
		for s.lru.Len() > s.limit {
			delete(s.recs, s.lru.Remove(s.lru.Back()).(streamKey))
		}
		s.mu.Unlock()
		return nil
	}
	s.lru.MoveToFront(e.elem)
	s.mu.Unlock()
	// An entry evicted while its first caller still records it stays
	// valid for everyone already holding it.
	e.once.Do(func() { e.rec = workload.Record(prof, n) })
	return e.rec
}

// source returns a fresh stream of n events of prof: a replay of the
// memoized recording, or a live generator when s is nil or has no
// recording to offer.
func (s *Streams) source(prof *workload.Profile, n uint64) workload.Source {
	if s != nil {
		if rec := s.recording(prof, n); rec != nil {
			return rec.Source()
		}
	}
	return workload.NewGenerator(prof)
}
