// Package simd implements the long-lived simulation daemon: a
// message-passing request loop (in the style of minixfs's fs server)
// over the wire protocol of internal/simd/wire. One shared
// resizecache.Session backs every connection, so plans submitted by
// concurrent clients partition across the same worker shards through
// Runner.Enqueue — gang coalescing, in-flight dedup, and memoization
// work across clients, and the second client to replay a plan gets
// near-total store hits and zero new simulations.
//
// Each connection runs one goroutine that reads request frames and
// answers store, flush, stats and ping ops inline. A plan, the one op
// that streams frames and can run for long, gets a goroutine of its
// own, so a connection can interleave store calls with a long plan.
// Whoever produces a response frame writes it, one frame at a time
// under the connection's write lock. Plans derive their contexts from
// the server's run context — not the accept loop's — so a graceful
// drain (Serve's ctx cancelled) stops accepting and reading requests
// while in-flight plans run to completion; Abort cancels them too.
package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"resizecache"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/simd/client"
	"resizecache/internal/simd/wire"
)

// Options configures a Server. Workers, MemoLimit and Store configure
// the runner of the daemon's one shared session; its plans coalesce
// into gangs as every session's do.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// MemoLimit bounds the in-memory memo table (0 = unbounded).
	MemoLimit int
	// Store is the backing persistent store shared by the daemon's
	// runner and its store service (nil = a fresh MemStore). Serve
	// flushes it after draining.
	Store runner.Store
	// IdleTimeout closes a connection that has sent no frame for this
	// long while it has no plan in flight — a half-open client can no
	// longer pin its goroutine for the process lifetime (0 = no idle
	// timeout). A connection running a long plan is busy, not idle, and
	// is never closed by this; idle clients that want to stay connected
	// send wire.OpPing keepalives, which (like any frame) reset the
	// clock.
	IdleTimeout time.Duration
	// Logf, when non-nil, receives connection-lifecycle log lines.
	Logf func(format string, args ...any)
}

// Server is the daemon: one shared session, many client connections.
// Construct with New.
type Server struct {
	session *resizecache.Session
	store   runner.Store
	idle    time.Duration
	logf    func(string, ...any)

	// runCtx scopes request handlers: it outlives Serve's accept/drain
	// context so a graceful drain lets in-flight plans finish, and Abort
	// cancels it for a hard stop.
	runCtx context.Context
	abort  context.CancelFunc
}

// New constructs a Server around one shared session.
func New(opts Options) (*Server, error) {
	store := opts.Store
	if store == nil {
		store = runner.NewMemStore()
	}
	session, err := resizecache.NewSessionWith(resizecache.SessionOptions{
		Workers: opts.Workers, MemoLimit: opts.MemoLimit, Store: store})
	if err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	runCtx, abort := context.WithCancel(context.Background())
	return &Server{session: session, store: store, idle: opts.IdleTimeout,
		logf: logf, runCtx: runCtx, abort: abort}, nil
}

// Abort cancels every in-flight request's context: plans stop between
// simulations and report context errors. Used for a hard shutdown after
// a graceful drain has been requested (e.g. a second SIGTERM).
func (s *Server) Abort() { s.abort() }

// Stats snapshots the shared session's scheduling counters.
func (s *Server) Stats() runner.Stats { return s.session.Stats() }

// Listen resolves a simd listen address ("unix:<path>", "tcp:<addr>",
// bare path or host:port) into a listener. It parses the address with
// the client's ParseAddr, so one string names the same endpoint on both
// ends; the server may import the client, never the other way round.
func Listen(addr string) (net.Listener, error) {
	network, target := client.ParseAddr(addr)
	ln, err := net.Listen(network, target)
	if err != nil {
		return nil, fmt.Errorf("simd: listen %s: %w", addr, err)
	}
	return ln, nil
}

// Serve accepts connections until ctx is cancelled or the listener
// fails, then drains: no new requests are dispatched, in-flight
// requests (whole plans included) run to completion on the run context,
// and the backing store is flushed before Serve returns. Callers wanting
// a hard stop call Abort after cancelling ctx.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	var wg sync.WaitGroup
	var acceptErr error
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		s.logf("simd: client connected: %v", nc.RemoteAddr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(ctx, nc)
			s.logf("simd: client disconnected: %v", nc.RemoteAddr())
		}()
	}
	wg.Wait()
	if err := s.store.Flush(); err != nil {
		if acceptErr == nil {
			acceptErr = fmt.Errorf("simd: final flush: %w", err)
		}
	}
	return acceptErr
}

// conn is one client connection's server-side state: the socket its
// response frames are written to and the cancel functions of its
// in-flight plans.
type conn struct {
	nc    net.Conn
	drain context.Context // Serve's: once done, send bounds each write

	wmu  sync.Mutex // one frame at a time, each in one Write
	dead bool       // a write failed; later frames are dropped

	mu      sync.Mutex
	cancels map[uint64]context.CancelFunc
	plans   sync.WaitGroup
}

// send writes one response frame. A failed write marks the connection
// dead and closes it, so no later frame blocks on a gone peer and the
// read loop sees the hangup. While the server drains, each write gets
// drainGrace to finish.
func (c *conn) send(resp wire.Response) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.dead {
		return
	}
	if c.drain.Err() != nil {
		c.nc.SetWriteDeadline(time.Now().Add(drainGrace)) //simlint:allow drain deadline is transport plumbing, not simulation input
	}
	if err := wire.WriteFrame(c.nc, resp); err != nil {
		c.dead = true
		c.nc.Close()
	}
}

// cancel aborts the in-flight plan with the given request ID, if any.
func (c *conn) cancel(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fn := c.cancels[id]; fn != nil {
		fn()
	}
}

// busy reports whether the connection has a plan in flight.
func (c *conn) busy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cancels) > 0
}

// serveConn reads and answers one connection's requests until the
// client hangs up or ctx asks for a drain; either way it waits for the
// connection's plans before closing the socket, so every accepted
// request's frames are delivered.
func (s *Server) serveConn(ctx context.Context, nc net.Conn) {
	defer nc.Close()
	c := &conn{nc: nc, drain: ctx, cancels: make(map[uint64]context.CancelFunc)}
	// A drain ends the blocked read at once, and bounds a write already
	// blocked on a peer that has stopped reading.
	stop := context.AfterFunc(ctx, func() {
		nc.SetReadDeadline(time.Unix(1, 0))
		nc.SetWriteDeadline(time.Now().Add(drainGrace)) //simlint:allow drain deadline is transport plumbing, not simulation input
	})
	defer stop()

	// With an idle timeout, each frame read carries a deadline: a
	// connection that goes silent with no plan in flight is torn down
	// instead of pinning its goroutine forever (the half-open-client
	// case), while a deadline that fires on a busy connection — a client
	// quietly waiting out a long plan — just re-arms. A deadline that
	// fires mid-frame is a wedged peer either way and closes the
	// connection: resuming a partial read after an unknown delay would
	// desynchronize the framing.
	cr := &countingReader{r: nc}
	for {
		if s.idle > 0 {
			// One wall-clock read per armed deadline; the value never
			// reaches simulation state, only the socket option.
			nc.SetReadDeadline(time.Now().Add(s.idle)) //simlint:allow idle-timeout deadline is transport plumbing, not simulation input
			if ctx.Err() != nil {
				break // the re-arm may have undone the drain's deadline
			}
		}
		before := cr.n
		var req wire.Request
		if err := wire.ReadFrame(cr, &req); err != nil {
			if ctx.Err() == nil && s.idle > 0 && isTimeout(err) && cr.n == before && c.busy() {
				continue // busy, not idle: re-arm and keep listening
			}
			break
		}
		if ctx.Err() != nil {
			break
		}
		s.handle(c, req)
	}
	// On a client hangup, abort its in-flight plans — nobody is left to
	// read their frames. On a drain connected clients keep their cancels
	// unfired so plans finish.
	if ctx.Err() == nil {
		c.mu.Lock()
		for _, fn := range c.cancels { //simlint:ordered cancel fan-out is order-insensitive
			fn()
		}
		c.mu.Unlock()
	}
	c.plans.Wait()
}

// drainGrace bounds each response write made while the server drains,
// so a peer that has stopped reading cannot hold Serve forever.
const drainGrace = 5 * time.Second

// countingReader counts bytes delivered to ReadFrame so the idle check
// can tell "no frame started" (idle) from "a frame stalled mid-read"
// (wedged peer). Only the connection's goroutine touches it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handle answers one request on the connection's goroutine. Cancel and
// the store, flush, stats and ping ops are answered inline. A plan, the
// one op that streams frames and can run for long, runs on a goroutine
// of its own, scoped to the server's run context so a drain does not
// cancel it, and registered until its done frame is written: an OpCancel
// frame or a hangup can abort it, and the idle-timeout check counts the
// connection as busy.
func (s *Server) handle(c *conn, req wire.Request) {
	if req.Op == wire.OpCancel {
		c.cancel(req.Target)
		return
	}
	fail := func(format string, args ...any) {
		c.send(wire.Response{ID: req.ID, Kind: wire.KindError, Err: fmt.Sprintf(format, args...)})
	}
	reply := func(resp wire.Response) {
		resp.ID, resp.Kind = req.ID, wire.KindReply
		c.send(resp)
	}
	if req.V != wire.ProtocolVersion {
		fail("protocol version mismatch: client v%d, server v%d", req.V, wire.ProtocolVersion)
		return
	}

	// The store ops need a parsed key.
	var key sim.Key
	switch req.Op {
	case wire.OpLookup, wire.OpRecord, wire.OpLookupArtifact, wire.OpRecordArtifact:
		k, err := wire.ParseKey(req.Key)
		if err != nil {
			fail("%v", err)
			return
		}
		key = k
	}

	switch req.Op {
	case wire.OpPlan:
		ctx, cancel := context.WithCancel(s.runCtx)
		c.mu.Lock()
		c.cancels[req.ID] = cancel
		c.mu.Unlock()
		c.plans.Add(1)
		go func() {
			defer c.plans.Done()
			s.handlePlan(ctx, c, req)
			c.mu.Lock()
			delete(c.cancels, req.ID)
			c.mu.Unlock()
			cancel()
		}()
	case wire.OpLookup:
		sr, ok := s.store.Lookup(key)
		if !ok {
			reply(wire.Response{})
			return
		}
		data, _ := sr.MarshalBinary() // never fails
		reply(wire.Response{Found: true, Value: data})
	case wire.OpRecord:
		var sr runner.StoredResult
		if err := sr.UnmarshalBinary(req.Value); err != nil {
			fail("decode stored result: %v", err)
			return
		}
		s.store.Record(key, sr)
		reply(wire.Response{})
	case wire.OpLookupArtifact:
		data, ok := s.store.LookupArtifact(key)
		reply(wire.Response{Found: ok, Value: data})
	case wire.OpRecordArtifact:
		s.store.RecordArtifact(key, req.Value)
		reply(wire.Response{})
	case wire.OpFlush:
		if err := s.store.Flush(); err != nil {
			fail("flush: %v", err)
			return
		}
		reply(wire.Response{})
	case wire.OpStats:
		data, err := json.Marshal(s.session.Stats())
		if err != nil {
			fail("encode stats: %v", err)
			return
		}
		reply(wire.Response{Value: data})
	case wire.OpPing:
		// The health check: an empty reply proves the connection is read
		// and answered. Receiving the frame already reset the idle clock.
		reply(wire.Response{})
	default:
		fail("unknown op %q", req.Op)
	}
}

// handlePlan executes one plan submission: decode the scenario
// payload, re-validate through PlanOf (scenarios arrive normalized, so
// plan order — and therefore result indexing — is preserved), run it
// on the shared session, and stream result frames in completion order
// followed by a done frame. Per-scenario errors travel in their result
// frame; the rest of the plan continues — exactly Session.Run's
// isolation.
func (s *Server) handlePlan(ctx context.Context, c *conn, req wire.Request) {
	scenarios, err := resizecache.UnmarshalScenarios(req.Scenarios)
	if err != nil {
		c.send(wire.Response{ID: req.ID, Kind: wire.KindError, Err: fmt.Sprintf("decode plan: %v", err)})
		return
	}
	plan, err := resizecache.PlanOf(scenarios...)
	if err != nil {
		c.send(wire.Response{ID: req.ID, Kind: wire.KindError, Err: fmt.Sprintf("invalid plan: %v", err)})
		return
	}
	if plan.Len() != len(scenarios) {
		// Would break index correlation: the client sent a plan whose
		// normal form differs from its own (version skew or a hand-rolled
		// non-normalized submission).
		c.send(wire.Response{ID: req.ID, Kind: wire.KindError,
			Err: fmt.Sprintf("plan renormalized from %d to %d scenarios; client and server disagree on scenario normal form", len(scenarios), plan.Len())})
		return
	}

	total := plan.Len()
	completed := 0
	for r := range s.session.Run(ctx, plan) {
		completed++
		frame := wire.Response{ID: req.ID, Kind: wire.KindResult,
			Index: r.Index, Completed: completed, Total: total}
		if r.Err != nil {
			frame.Err = r.Err.Error()
		} else {
			frame.Outcome, _ = r.Outcome.MarshalBinary() // never fails
		}
		c.send(frame)
	}
	c.send(wire.Response{ID: req.ID, Kind: wire.KindDone})
}
