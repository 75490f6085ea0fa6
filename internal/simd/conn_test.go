package simd_test

// Connection-lifetime tests: what a drain, a hangup and a long plan do
// to the other requests and frames of a connection, and what an idle
// connection costs the daemon. Raw clients (net.Dial plus wire frames)
// keep the client library's own goroutines and retries out of the
// picture.

import (
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resizecache"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/simd"
	simdclient "resizecache/internal/simd/client"
	"resizecache/internal/simd/wire"
)

// serveDaemon is startDaemon with the drain in the test's hands: drain
// cancels Serve's context, and served waits (boundedly, any number of
// times) for Serve to return. Cleanup drains, aborts and waits.
func serveDaemon(t *testing.T, opts simd.Options) (addr string, srv *simd.Server, drain context.CancelFunc, served func() error) {
	t.Helper()
	srv, err := simd.New(opts)
	if err != nil {
		t.Fatalf("simd.New: %v", err)
	}
	addr = "unix:" + filepath.Join(t.TempDir(), "s.sock")
	ln, err := simd.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, drain := context.WithCancel(context.Background())
	finished := make(chan struct{})
	var serveErr error
	go func() {
		serveErr = srv.Serve(ctx, ln)
		close(finished)
	}()
	served = func() error {
		t.Helper()
		select {
		case <-finished:
			return serveErr
		case <-time.After(time.Minute):
			t.Fatal("Serve did not return after the drain")
			return nil
		}
	}
	t.Cleanup(func() {
		drain()
		srv.Abort()
		if err := served(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return addr, srv, drain, served
}

// dialRaw opens a plain socket to the daemon, closed when the test ends.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("unix", strings.TrimPrefix(addr, "unix:"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

func writeReq(t *testing.T, nc net.Conn, req wire.Request) {
	t.Helper()
	req.V = wire.ProtocolVersion
	if err := wire.WriteFrame(nc, req); err != nil {
		t.Fatal(err)
	}
}

func readResp(t *testing.T, nc net.Conn) wire.Response {
	t.Helper()
	var resp wire.Response
	if err := wire.ReadFrame(nc, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// ping round-trips one OpPing, so the daemon is known to serve nc.
func ping(t *testing.T, nc net.Conn, id uint64) {
	t.Helper()
	writeReq(t, nc, wire.Request{ID: id, Op: wire.OpPing})
	if resp := readResp(t, nc); resp.ID != id || resp.Kind != wire.KindReply {
		t.Fatalf("ping answered %+v", resp)
	}
}

// gangPlan is a cold plan of n benchmarks at 200K instructions. Each
// scenario's profiling sweep is one gang pass of tens of milliseconds,
// and under Workers: 1 the passes run one at a time, in no set order.
func gangPlan(t *testing.T, n int) resizecache.Plan {
	t.Helper()
	apps := resizecache.Benchmarks()
	if len(apps) < n {
		t.Fatalf("need %d benchmarks, have %d", n, len(apps))
	}
	scenarios := make([]resizecache.Scenario, n)
	for i, app := range apps[:n] {
		scenarios[i] = resizecache.Scenario{Benchmark: app,
			Organization: resizecache.SelectiveSets, Sides: resizecache.DOnly,
			Instructions: 200_000}
	}
	plan, err := resizecache.PlanOf(scenarios...)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// warmFirst runs plan's first scenario alone on nc, as request id, so
// that when the whole plan follows, its first result frame comes at
// once while every other scenario is still cold.
func warmFirst(t *testing.T, nc net.Conn, id uint64, plan resizecache.Plan) {
	t.Helper()
	first, err := resizecache.PlanOf(plan.Scenarios()[0])
	if err != nil {
		t.Fatal(err)
	}
	writeReq(t, nc, planRequest(id, first))
	if results := readPlan(t, nc, id, nil); len(results) != 1 || results[0].Err != "" {
		t.Fatalf("warming the first scenario answered %+v", results)
	}
}

func planRequest(id uint64, plan resizecache.Plan) wire.Request {
	return wire.Request{ID: id, Op: wire.OpPlan, Scenarios: resizecache.MarshalScenarios(plan.Scenarios())}
}

// readPlan reads plan id's frames through its done frame and returns
// the result frames, failing on any other frame or a repeated index.
func readPlan(t *testing.T, nc net.Conn, id uint64, results []wire.Response) []wire.Response {
	t.Helper()
	seen := make(map[int]bool)
	for _, r := range results {
		seen[r.Index] = true
	}
	for {
		resp := readResp(t, nc)
		if resp.ID != id {
			t.Fatalf("frame for request %d while reading plan %d: %+v", resp.ID, id, resp)
		}
		switch resp.Kind {
		case wire.KindDone:
			return results
		case wire.KindResult:
			if seen[resp.Index] {
				t.Fatalf("scenario %d delivered twice", resp.Index)
			}
			seen[resp.Index] = true
			results = append(results, resp)
		default:
			t.Fatalf("plan %d answered %+v", id, resp)
		}
	}
}

// expectHangup fails unless the daemon has closed nc.
func expectHangup(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	var resp wire.Response
	if err := wire.ReadFrame(nc, &resp); !errors.Is(err, io.EOF) {
		t.Errorf("after the drain the connection read %+v, %v; want EOF", resp, err)
	}
}

// TestDrainFinishesInFlightPlan pins the graceful drain: cancelling
// Serve's context mid-plan delivers every result frame and the done
// frame, hangs up every connection (an idle bystander too) and returns
// nil once the store is flushed. Abort after the drain has begun
// cancels the unfinished scenarios, whose results then carry the
// cancellation, and Serve still returns.
func TestDrainFinishesInFlightPlan(t *testing.T) {
	t.Run("completes", func(t *testing.T) {
		addr, _, drain, served := serveDaemon(t, simd.Options{Workers: 1})
		bystander := dialRaw(t, addr)
		ping(t, bystander, 1)
		nc := dialRaw(t, addr)
		plan := gangPlan(t, 6)
		warmFirst(t, nc, 1, plan)
		writeReq(t, nc, planRequest(2, plan))
		first := readResp(t, nc)
		if first.Kind != wire.KindResult {
			t.Fatalf("first plan frame = %+v, want a result", first)
		}
		drain()
		results := readPlan(t, nc, 2, []wire.Response{first})
		if len(results) != plan.Len() {
			t.Fatalf("drained plan delivered %d results, want %d", len(results), plan.Len())
		}
		for _, r := range results {
			if r.Err != "" {
				t.Errorf("scenario %d failed during the drain: %s", r.Index, r.Err)
			}
		}
		if err := served(); err != nil {
			t.Errorf("Serve after the drain: %v", err)
		}
		expectHangup(t, nc)
		expectHangup(t, bystander)
	})

	t.Run("abort", func(t *testing.T) {
		addr, srv, drain, served := serveDaemon(t, simd.Options{Workers: 1})
		nc := dialRaw(t, addr)
		plan := gangPlan(t, 12)
		warmFirst(t, nc, 1, plan)
		writeReq(t, nc, planRequest(2, plan))
		first := readResp(t, nc)
		if first.Kind != wire.KindResult {
			t.Fatalf("first plan frame = %+v, want a result", first)
		}
		drain()
		srv.Abort()
		results := readPlan(t, nc, 2, []wire.Response{first})
		if len(results) != plan.Len() {
			t.Fatalf("aborted plan delivered %d results, want %d", len(results), plan.Len())
		}
		cancelled := 0
		for _, r := range results {
			if strings.Contains(r.Err, context.Canceled.Error()) {
				cancelled++
			}
		}
		if cancelled == 0 {
			t.Error("Abort cancelled no unfinished scenario")
		}
		if err := served(); err != nil {
			t.Errorf("Serve after the abort: %v", err)
		}
		expectHangup(t, nc)
	})
}

// TestDrainBoundsWritesToStalledPeer: a client that sends pings and
// never reads their replies wedges the daemon's write to it. Once the
// drain starts, that write gets a bounded grace, after which the daemon
// drops the connection and Serve returns.
func TestDrainBoundsWritesToStalledPeer(t *testing.T) {
	addr, _, drain, served := serveDaemon(t, simd.Options{})
	nc := dialRaw(t, addr)
	// Write pings until both directions' socket buffers are full: the
	// daemon then blocks writing a reply, and stops reading.
	for id := uint64(1); ; id++ {
		nc.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		req := wire.Request{ID: id, V: wire.ProtocolVersion, Op: wire.OpPing}
		if err := wire.WriteFrame(nc, req); err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				t.Fatal(err)
			}
			break
		}
	}
	start := time.Now()
	drain()
	if err := served(); err != nil {
		t.Errorf("Serve after the drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("Serve took %v to drop the stalled peer", elapsed)
	}
}

// TestHangupCancelsInFlightPlan:a client that hangs up mid-plan stops
// the daemon simulating the rest of it, and the daemon goes on serving
// other connections.
func TestHangupCancelsInFlightPlan(t *testing.T) {
	gone := make(chan struct{}, 16)
	addr, srv, _, _ := serveDaemon(t, simd.Options{Workers: 1,
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "simd: client disconnected") {
				select {
				case gone <- struct{}{}:
				default:
				}
			}
		}})
	nc := dialRaw(t, addr)
	plan := gangPlan(t, 12)
	warmFirst(t, nc, 1, plan)
	writeReq(t, nc, planRequest(2, plan))
	if first := readResp(t, nc); first.Kind != wire.KindResult {
		t.Fatalf("first plan frame = %+v, want a result", first)
	}
	atHangup := srv.Stats()
	nc.Close()

	// The connection is gone only once its plan has returned, and the
	// plan returns only after every gang it enqueued has finished.
	select {
	case <-gone:
	case <-time.After(time.Minute):
		t.Fatal("the daemon never finished the hung-up connection")
	}
	d := srv.Stats().Delta(atHangup)
	// Workers: 1 runs one gang at a time. The gang in flight when the
	// cancel lands finishes (a gang pass does not stop midway), and at
	// most one more may have started before the hangup reached the
	// daemon; every other queued gang must be dropped.
	if d.GangBatches > 2 || d.Runs > d.Ganged {
		t.Errorf("after the hangup the daemon ran %d more gangs (%d simulations), want at most 2 gangs; the plan has %d scenarios",
			d.GangBatches, d.Runs, plan.Len())
	}

	// A second connection is served, plans included.
	nc2 := dialRaw(t, addr)
	ping(t, nc2, 1)
	small, err := resizecache.PlanOf(resizecache.Scenario{Benchmark: "m88ksim",
		Organization: resizecache.SelectiveWays, Sides: resizecache.DOnly, Instructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	writeReq(t, nc2, planRequest(3, small))
	if results := readPlan(t, nc2, 3, nil); len(results) != 1 || results[0].Err != "" {
		t.Errorf("plan on a second connection answered %+v", results)
	}
}

// gatedStore holds every Lookup, or with artifacts set every
// LookupArtifact, until gate is closed, counting the calls it holds.
type gatedStore struct {
	runner.Store
	artifacts bool
	gate      chan struct{}
	held      atomic.Int64
}

func newGatedStore(artifacts bool) *gatedStore {
	return &gatedStore{Store: runner.NewMemStore(), artifacts: artifacts, gate: make(chan struct{})}
}

func (s *gatedStore) Lookup(k sim.Key) (runner.StoredResult, bool) {
	if !s.artifacts {
		s.held.Add(1)
		<-s.gate
	}
	return s.Store.Lookup(k)
}

func (s *gatedStore) LookupArtifact(k sim.Key) ([]byte, bool) {
	if s.artifacts {
		s.held.Add(1)
		<-s.gate
	}
	return s.Store.LookupArtifact(k)
}

// waitHeld waits until the store holds at least n calls.
func (s *gatedStore) waitHeld(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for s.held.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d calls, want %d", s.held.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnectionServesStoreOpsDuringPlan: while a plan on a connection
// waits on the store, the same connection still answers a ping, an
// artifact lookup and a record, and the plan completes once the store
// lets it go.
func TestConnectionServesStoreOpsDuringPlan(t *testing.T) {
	store := newGatedStore(false)
	addr, _ := startDaemon(t, simd.Options{Workers: 1, Store: store})
	conn, err := simdclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	plan := chaosPlan(t)
	results := 0
	streamed := make(chan error, 1)
	go func() {
		streamed <- conn.Stream(context.Background(), planRequest(0, plan), func(wire.Response) error {
			results++
			return nil
		})
	}()
	store.waitHeld(t, 1)

	ctx := context.Background()
	if err := conn.Ping(ctx); err != nil {
		t.Errorf("ping during the plan: %v", err)
	}
	key := sim.Default("gcc").Key().String()
	if resp, err := conn.Call(ctx, wire.Request{Op: wire.OpLookupArtifact, Key: key}); err != nil || resp.Found {
		t.Errorf("artifact lookup during the plan answered %+v, %v; want a miss", resp, err)
	}
	value, _ := runner.StoredResult{Err: "recorded during a plan"}.MarshalBinary()
	if _, err := conn.Call(ctx, wire.Request{Op: wire.OpRecord, Key: key, Value: value}); err != nil {
		t.Errorf("record during the plan: %v", err)
	}
	select {
	case err := <-streamed:
		t.Fatalf("the plan finished (%v) while the store held its lookups", err)
	default:
	}

	close(store.gate)
	select {
	case err := <-streamed:
		if err != nil {
			t.Fatalf("plan after the store let go: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the plan never finished after the store let go")
	}
	if results != plan.Len() {
		t.Errorf("plan delivered %d results, want %d", results, plan.Len())
	}
}

// TestIdleConnectionCostsOneGoroutine: an open connection costs the
// daemon one goroutine, and a store op in progress on it costs no more
// (it runs on that goroutine).
func TestIdleConnectionCostsOneGoroutine(t *testing.T) {
	const conns = 20
	store := newGatedStore(true)
	addr, _ := startDaemon(t, simd.Options{Store: store})
	base := runtime.NumGoroutine()
	limit := base + conns + 2

	ncs := make([]net.Conn, conns)
	for i := range ncs {
		ncs[i] = dialRaw(t, addr)
		ping(t, ncs[i], 1)
	}
	if n := runtime.NumGoroutine(); n > limit {
		t.Errorf("%d idle connections took the process from %d to %d goroutines, want at most %d",
			conns, base, n, limit)
	}

	// Each connection's artifact lookup blocks in the store.
	key := sim.Default("gcc").Key().String()
	for _, nc := range ncs {
		writeReq(t, nc, wire.Request{ID: 2, Op: wire.OpLookupArtifact, Key: key})
	}
	store.waitHeld(t, conns)
	if n := runtime.NumGoroutine(); n > limit {
		t.Errorf("%d connections blocked in a store op took the process from %d to %d goroutines, want at most %d",
			conns, base, n, limit)
	}
	close(store.gate)
	for _, nc := range ncs {
		if resp := readResp(t, nc); resp.ID != 2 || resp.Kind != wire.KindReply || resp.Found {
			t.Errorf("artifact lookup answered %+v, want a miss", resp)
		}
	}
}
