// Package simd implements the long-lived simulation daemon: a
// message-passing request loop (in the style of minixfs's fs server)
// over the wire protocol of internal/simd/wire. One shared
// resizecache.Session backs every connection, so plans submitted by
// concurrent clients partition across the same worker shards through
// Runner.Enqueue — gang coalescing, in-flight dedup, and memoization
// work across clients, and the second client to replay a plan gets
// near-total store hits and zero new simulations.
//
// Each connection runs three goroutines: a reader that decodes request
// frames, the request loop that dispatches them, and a writer that
// serializes response frames. Handlers run concurrently per request
// (a connection can interleave store calls with a long plan), publish
// through the writer's channel, and derive their contexts from the
// server's run context — not the accept loop's — so a graceful drain
// (Serve's ctx cancelled) stops accepting and dispatching while
// in-flight plans run to completion; Abort cancels them too.
package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
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
	// long while it has no in-flight requests — a half-open client can
	// no longer pin its three goroutines for the process lifetime
	// (0 = no idle timeout). A connection running a long plan is busy,
	// not idle, and is never closed by this; idle clients that want to
	// stay connected send wire.OpPing keepalives, which (like any
	// frame) reset the clock.
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

// conn is one client connection's server-side state: the serialized
// response stream and the cancel functions of its in-flight plans.
type conn struct {
	out chan wire.Response

	// inflight counts dispatched-but-unfinished requests: the reader's
	// idle-timeout check treats a connection with in-flight work (a
	// long-running plan, a slow store op) as busy, never idle.
	inflight atomic.Int64

	mu      sync.Mutex
	cancels map[uint64]context.CancelFunc
}

// send queues a response frame for the writer goroutine.
func (c *conn) send(resp wire.Response) { c.out <- resp }

// register installs a plan request's cancel func so an OpCancel frame
// can abort it.
func (c *conn) register(id uint64, cancel context.CancelFunc) {
	c.mu.Lock()
	c.cancels[id] = cancel
	c.mu.Unlock()
}

func (c *conn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.cancels, id)
	c.mu.Unlock()
}

// cancel aborts the in-flight plan with the given request ID, if any.
func (c *conn) cancel(id uint64) {
	c.mu.Lock()
	fn := c.cancels[id]
	c.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// serveConn runs one connection's request loop until the client hangs
// up or ctx asks for a drain; either way it waits for the connection's
// in-flight handlers before closing the socket, so every accepted
// request's frames are delivered.
func (s *Server) serveConn(ctx context.Context, nc net.Conn) {
	defer nc.Close()
	c := &conn{out: make(chan wire.Response, 64), cancels: make(map[uint64]context.CancelFunc)}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for resp := range c.out {
			if err := wire.WriteFrame(nc, resp); err != nil {
				// The client is gone; drain the channel so handlers never
				// block publishing to it.
				for range c.out {
				}
				return
			}
		}
	}()

	// Reader: frames flow to the request loop; a read error (EOF on
	// hangup) closes reqs and ends the loop. With an idle timeout, each
	// frame read carries a deadline: a connection that goes silent with
	// no in-flight work is torn down instead of pinning its goroutines
	// forever (the half-open-client case), while a deadline that fires
	// on a busy connection — a client quietly waiting out a long plan —
	// just re-arms. A deadline that fires mid-frame is a wedged peer
	// either way and closes the connection: resuming a partial read
	// after an unknown delay would desynchronize the framing.
	reqs := make(chan wire.Request)
	go func() {
		defer close(reqs)
		cr := &countingReader{r: nc}
		for {
			if s.idle > 0 {
				// One wall-clock read per armed deadline; the value never
				// reaches simulation state, only the socket option.
				nc.SetReadDeadline(time.Now().Add(s.idle)) //simlint:allow idle-timeout deadline is transport plumbing, not simulation input
			}
			before := cr.n
			var req wire.Request
			if err := wire.ReadFrame(cr, &req); err != nil {
				if s.idle > 0 && isTimeout(err) && cr.n == before && c.inflight.Load() > 0 {
					continue // busy, not idle: re-arm and keep listening
				}
				return
			}
			select {
			case reqs <- req:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case req, ok := <-reqs:
			if !ok {
				break loop
			}
			s.dispatch(c, req, &wg)
		}
	}
	// On a client hangup, abort its in-flight plans — nobody is left to
	// read their frames. On a drain (ctx done) the reader also stops, but
	// connected clients keep their cancels unfired so plans finish.
	if ctx.Err() == nil {
		c.mu.Lock()
		cancels := make([]context.CancelFunc, 0, len(c.cancels))
		for _, fn := range c.cancels { //simlint:ordered cancel fan-out is order-insensitive
			cancels = append(cancels, fn)
		}
		c.mu.Unlock()
		for _, fn := range cancels {
			fn()
		}
	}
	wg.Wait()
	close(c.out)
	// A peer that stopped reading (or a stalled transport) can wedge the
	// writer on its final frames; bound the wait by closing the socket
	// instead of pinning the drain forever.
	unwedge := time.AfterFunc(drainGrace, func() { nc.Close() })
	<-writerDone
	unwedge.Stop()
}

// drainGrace bounds how long a closing connection waits for its last
// response frames to flush to a peer that has stopped reading.
const drainGrace = 5 * time.Second

// countingReader counts bytes delivered to ReadFrame so the idle check
// can tell "no frame started" (idle) from "a frame stalled mid-read"
// (wedged peer). Only the reader goroutine touches it.
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

// dispatch routes one request. Cancel frames are handled inline
// (fire-and-forget); everything else gets a handler goroutine tracked
// by wg — and counted in the connection's in-flight gauge, which the
// idle-timeout check consults — scoped to the server's run context so a
// drain does not cancel it.
func (s *Server) dispatch(c *conn, req wire.Request, wg *sync.WaitGroup) {
	if req.Op == wire.OpCancel {
		c.cancel(req.Target)
		return
	}
	if req.V != wire.ProtocolVersion {
		c.send(wire.Response{ID: req.ID, Kind: wire.KindError,
			Err: fmt.Sprintf("protocol version mismatch: client v%d, server v%d", req.V, wire.ProtocolVersion)})
		return
	}
	wg.Add(1)
	c.inflight.Add(1)
	go func() {
		defer wg.Done()
		defer c.inflight.Add(-1)
		s.handle(s.runCtx, c, req)
	}()
}

// handle executes one non-cancel request against the shared session and
// store.
func (s *Server) handle(ctx context.Context, c *conn, req wire.Request) {
	fail := func(format string, args ...any) {
		c.send(wire.Response{ID: req.ID, Kind: wire.KindError, Err: fmt.Sprintf(format, args...)})
	}
	reply := func(resp wire.Response) {
		resp.ID, resp.Kind = req.ID, wire.KindReply
		c.send(resp)
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
		s.handlePlan(ctx, c, req)
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
		// The health check: an empty reply proves the request loop is
		// alive. Receiving the frame already reset the idle clock.
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

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.register(req.ID, cancel)
	defer c.unregister(req.ID)

	total := plan.Len()
	completed := 0
	for r := range s.session.Run(pctx, plan) {
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
