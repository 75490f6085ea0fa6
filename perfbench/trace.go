package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// A traced run records spans from the benchmark's own files, around its
// calls into the system's public entry points: request wrappers in the
// workloads, a timing runner.Store decorator, and a net.Listener wrapper
// around the daemon. Nothing inside the program is instrumented.

// span is one timed call at a layer boundary.
type span struct {
	name   string // "<layer>.<op>"
	layer  string
	kind   string // request kind or wire op
	start  int64  // ns since the recorder's epoch
	dur    int64  // ns
	lane   int    // Chrome-trace thread: which client or server side
	id     uint64
	parent uint64 // the request that caused it, when attributable
	n      int64  // bytes moved, or scenarios in a plan
	hit    bool   // store lookups: found
}

// Lanes group spans in the trace viewer.
const (
	laneClient = 1 // the measuring client (client A on replay-remote)
	laneB      = 2 // replay-remote's store client
	laneDaemon = 3
	laneStore  = 4
)

// recorder holds spans in memory until the run ends. Its capacity is
// fixed; spans past it are counted and dropped.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Uint64
	current atomic.Uint64 // the in-flight request of a single-client workload

	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int
}

const spanCapacity = 1 << 18

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), limit: spanCapacity}
}

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// timed records one span from t0 to now and returns its duration.
func (r *recorder) timed(s span, t0 time.Time) time.Duration {
	d := time.Since(t0)
	s.start, s.dur = r.since(t0), d.Nanoseconds()
	r.add(s)
	return d
}

// snapshot returns the spans recorded so far and how many were dropped.
func (r *recorder) snapshot() ([]span, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), r.dropped
}

// writeChrome writes the spans as Chrome Trace Event JSON, which
// Perfetto and chrome://tracing open.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	spans, _ := r.snapshot()
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.id}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		if s.kind != "" {
			args["kind"] = s.kind
		}
		if s.n != 0 {
			args["n"] = s.n
		}
		if s.hit {
			args["hit"] = true
		}
		events = append(events, event{Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Pid: 1, Tid: s.lane, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// hooks connects a workload's trace points to the recorder of the pass
// being traced. A nil *hooks (an untraced run) installs no wrappers at
// all; a non-nil one with no recorder is installed but records nothing.
type hooks struct {
	rec    atomic.Pointer[recorder]
	census census
	wire   wireCounts
	// attribute marks a single-client workload, where every store
	// operation belongs to the one request in flight.
	attribute bool
}

// recorder returns the active recorder, or nil when not recording.
func (h *hooks) recorder() *recorder {
	if h == nil {
		return nil
	}
	return h.rec.Load()
}

// request times one facade call. With a recorder it records the span
// and, for single-client workloads, marks it as the parent of the store
// operations it causes.
func (h *hooks) request(layer, kind string, n int, fn func()) time.Duration {
	rec := h.recorder()
	t0 := time.Now()
	if rec == nil {
		fn()
		return time.Since(t0)
	}
	id := rec.nextID.Add(1)
	if h.attribute {
		rec.current.Store(id)
		defer rec.current.Store(0)
	}
	fn()
	return rec.timed(span{name: layer + ".request", layer: layer, kind: kind, lane: laneClient, id: id, n: int64(n)}, t0)
}

// wrapStore decorates a store with span recording. With simulations
// set, every result recorded through it comes from a simulation the
// runner just ran, and it joins the census; the daemon's store also
// takes client B's re-records, which are not simulations.
func (h *hooks) wrapStore(s runner.Store, simulations bool) runner.Store {
	if h == nil {
		return s
	}
	return &timedStore{inner: s, h: h, census: simulations}
}

// timedStore is the runner.Store decorator of a traced run.
type timedStore struct {
	inner  runner.Store
	h      *hooks
	census bool
}

var _ runner.Store = (*timedStore)(nil)

func (s *timedStore) op(rec *recorder, name string, t0 time.Time, n int, hit bool) {
	rec.timed(span{name: "runner." + name, layer: "runner", kind: name, lane: laneStore,
		id: rec.nextID.Add(1), parent: rec.current.Load(), n: int64(n), hit: hit}, t0)
}

func (s *timedStore) Lookup(k sim.Key) (runner.StoredResult, bool) {
	rec := s.h.recorder()
	if rec == nil {
		return s.inner.Lookup(k)
	}
	t0 := time.Now()
	v, ok := s.inner.Lookup(k)
	s.op(rec, "lookup", t0, 0, ok)
	return v, ok
}

func (s *timedStore) Record(k sim.Key, v runner.StoredResult) {
	rec := s.h.recorder()
	if rec == nil {
		s.inner.Record(k, v)
		return
	}
	t0 := time.Now()
	s.inner.Record(k, v)
	s.op(rec, "record", t0, 0, false)
	if s.census {
		s.h.census.add(v.Result)
	}
}

func (s *timedStore) LookupArtifact(k sim.Key) ([]byte, bool) {
	rec := s.h.recorder()
	if rec == nil {
		return s.inner.LookupArtifact(k)
	}
	t0 := time.Now()
	data, ok := s.inner.LookupArtifact(k)
	s.op(rec, "lookup_artifact", t0, len(data), ok)
	return data, ok
}

func (s *timedStore) RecordArtifact(k sim.Key, data []byte) {
	rec := s.h.recorder()
	if rec == nil {
		s.inner.RecordArtifact(k, data)
		return
	}
	t0 := time.Now()
	s.inner.RecordArtifact(k, data)
	s.op(rec, "record_artifact", t0, len(data), false)
	if isCheckpoint(data) {
		s.h.census.checkpointBytes.Add(int64(len(data)))
	}
}

func (s *timedStore) Flush() error {
	rec := s.h.recorder()
	if rec == nil {
		return s.inner.Flush()
	}
	t0 := time.Now()
	err := s.inner.Flush()
	s.op(rec, "flush", t0, 0, false)
	return err
}

// isCheckpoint recognises a warmup checkpoint among artifact payloads by
// the fields the simulator's checkpoint format opens with.
func isCheckpoint(data []byte) bool {
	head := data[:min(len(data), 48)]
	return bytes.HasPrefix(head, []byte(`{"version":`)) && bytes.Contains(head, []byte(`"consumed":`))
}

// census totals the simulation results recorded during a traced pass.
type census struct {
	mu                              sync.Mutex
	instr, detailed, covered        uint64
	branches, mispredicts, accesses uint64
	resizes, flushed                uint64
	checkpointBytes                 atomic.Int64
}

func (c *census) add(r sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.instr += r.CPU.Instructions
	c.branches += r.CPU.Activity.Branches
	c.mispredicts += r.CPU.Activity.Mispredicts
	caches := []sim.CacheReport{r.DCache, r.ICache}
	for _, l := range r.Levels {
		caches = append(caches, l.CacheReport)
	}
	for _, cr := range caches {
		c.accesses += cr.Accesses
		c.resizes += cr.Resizes
		c.flushed += cr.FlushedBlocks
	}
	if r.Sample != nil {
		c.detailed += r.Sample.DetailedInstructions
		c.covered += r.Sample.TotalInstructions
	} else {
		c.detailed += r.CPU.Instructions
		c.covered += r.CPU.Instructions
	}
}

// wireCounts totals the daemon's frames while recording.
type wireCounts struct {
	frames, bytes, results atomic.Int64
}

// wrapListener pairs each request frame the daemon reads with its
// terminal response frame and records the exchange as a simd.request
// span.
func (h *hooks) wrapListener(ln net.Listener) net.Listener {
	if h == nil {
		return ln
	}
	return &tracedListener{Listener: ln, h: h}
}

type tracedListener struct {
	net.Listener
	h *hooks
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: nc, h: l.h, pending: map[uint64]pendingReq{}}, nil
}

type pendingReq struct {
	op    string
	start time.Time
}

// tracedConn parses the frames crossing one daemon connection. The
// daemon reads on one goroutine and writes on another, so each
// direction has its own parser.
type tracedConn struct {
	net.Conn
	h       *hooks
	in, out frameParser
	mu      sync.Mutex
	pending map[uint64]pendingReq
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n], c.h.recorder() != nil, func(body []byte, size int) {
		rec := c.h.recorder()
		if rec == nil || body == nil {
			return
		}
		var req struct {
			ID uint64 `json:"id"`
			Op string `json:"op"`
		}
		if json.Unmarshal(body, &req) != nil {
			return
		}
		c.h.wire.frames.Add(1)
		c.h.wire.bytes.Add(int64(size + 4))
		c.mu.Lock()
		c.pending[req.ID] = pendingReq{op: req.Op, start: time.Now()}
		c.mu.Unlock()
	})
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n], c.h.recorder() != nil, func(body []byte, size int) {
		rec := c.h.recorder()
		if rec == nil || body == nil {
			return
		}
		var resp struct {
			ID   uint64 `json:"id"`
			Kind string `json:"kind"`
		}
		if json.Unmarshal(body, &resp) != nil {
			return
		}
		c.h.wire.frames.Add(1)
		c.h.wire.bytes.Add(int64(size + 4))
		if resp.Kind == "result" {
			c.h.wire.results.Add(1)
			return
		}
		c.mu.Lock()
		req, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ok {
			rec.timed(span{name: "simd.request", layer: "simd", kind: req.op, lane: laneDaemon,
				id: rec.nextID.Add(1)}, req.start)
		}
	})
	return n, err
}

// frameParser splits a byte stream into the wire protocol's frames: a
// 4-byte big-endian length, then that many bytes of JSON. It always
// tracks frame boundaries, so recording can start on any frame; it
// keeps a frame's body only when asked to at the frame's start.
type frameParser struct {
	hdr    [4]byte
	hn     int
	remain int
	size   int
	keep   bool
	body   []byte
}

func (f *frameParser) feed(p []byte, keep bool, frame func(body []byte, size int)) {
	for len(p) > 0 {
		if f.hn < 4 {
			c := copy(f.hdr[f.hn:], p)
			f.hn += c
			p = p[c:]
			if f.hn < 4 {
				return
			}
			f.size = int(binary.BigEndian.Uint32(f.hdr[:]))
			f.remain = f.size
			f.keep = keep
			f.body = f.body[:0]
		}
		c := min(f.remain, len(p))
		if f.keep {
			f.body = append(f.body, p[:c]...)
		}
		f.remain -= c
		p = p[c:]
		if f.remain == 0 {
			var body []byte
			if f.keep {
				body = f.body
			}
			frame(body, f.size)
			f.hn = 0
		}
	}
}

// spanFile names the Chrome-trace output of a run.
func spanFile(workload string, seed uint64) string {
	return filepath.Join(benchDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
}
