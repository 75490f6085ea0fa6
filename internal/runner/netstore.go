package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"resizecache/internal/sim"
	simdclient "resizecache/internal/simd/client"
	"resizecache/internal/simd/wire"
)

// NetStore is the network Store backend: every Lookup/Record and
// artifact operation round-trips to a simd daemon's store service, so
// detached processes share one memo fabric even when they run their own
// simulations. Per the Store contract, failures degrade to misses — a
// daemon that is unreachable mid-run costs re-simulation, never
// corruption — and are counted (with successful remote hits) in the
// owning Runner's Stats as RemoteErrors/RemoteHits.
//
// Record and RecordArtifact write through synchronously; the daemon
// buffers them in its backing store, which it flushes on drain (and on
// an explicit Flush call here).
//
// A circuit breaker guards the degradation path: after
// BreakerThreshold consecutive failed round trips the store stops
// calling out and answers every operation as a miss for
// BreakerCooldownOps operations, then lets one probe through
// (half-open) — success closes the breaker, failure re-trips it. The
// cooldown is counted in operations, not wall-clock time, so breaker
// behaviour is deterministic for a fixed operation sequence. Trips are
// reported through the owning Runner's Stats as BreakerTrips.
type NetStore struct {
	conn       *simdclient.Conn
	breaker    breaker
	hits, errs atomic.Uint64
}

var _ Store = (*NetStore)(nil)
var _ RemoteCounter = (*NetStore)(nil)
var _ BreakerCounter = (*NetStore)(nil)

// Circuit-breaker defaults: a NetStore stops dialing out after this
// many consecutive failures and short-circuits this many operations
// before probing again.
const (
	DefaultBreakerThreshold   = 5
	DefaultBreakerCooldownOps = 128
)

// NetStoreOptions tunes OpenNetStoreWith. The zero value means
// defaults everywhere.
type NetStoreOptions struct {
	// BreakerThreshold is how many consecutive failed round trips trip
	// the breaker (0 = DefaultBreakerThreshold, negative = breaker
	// disabled: every operation calls out, however dead the daemon).
	BreakerThreshold int
	// BreakerCooldownOps is how many operations a tripped breaker
	// short-circuits before letting a probe through
	// (0 = DefaultBreakerCooldownOps).
	BreakerCooldownOps int
	// Client tunes the underlying simd client (timeouts, reconnect
	// backoff, failover); see simdclient.Options.
	Client simdclient.Options
}

// OpenNetStore dials a simd daemon (address forms per the simd client:
// "unix:<path>", "tcp:<host:port>", bare path or host:port; a
// comma-separated list fails over in order) and returns a Store backed
// by its store service, with default timeouts and circuit breaker.
func OpenNetStore(addr string) (*NetStore, error) {
	return OpenNetStoreWith(addr, NetStoreOptions{})
}

// OpenNetStoreWith is OpenNetStore with explicit tuning.
func OpenNetStoreWith(addr string, opts NetStoreOptions) (*NetStore, error) {
	conn, err := simdclient.DialWith(addr, opts.Client)
	if err != nil {
		return nil, fmt.Errorf("runner: dial net store %s: %w", addr, err)
	}
	s := &NetStore{conn: conn}
	s.breaker.threshold = opts.BreakerThreshold
	if s.breaker.threshold == 0 {
		s.breaker.threshold = DefaultBreakerThreshold
	}
	s.breaker.cooldown = opts.BreakerCooldownOps
	if s.breaker.cooldown == 0 {
		s.breaker.cooldown = DefaultBreakerCooldownOps
	}
	return s, nil
}

// Close tears down the daemon connection. Subsequent operations fail
// (and so read as misses).
func (s *NetStore) Close() error { return s.conn.Close() }

// RemoteCounts implements RemoteCounter.
func (s *NetStore) RemoteCounts() (hits, errors uint64) {
	return s.hits.Load(), s.errs.Load()
}

// BreakerTrips implements BreakerCounter.
func (s *NetStore) BreakerTrips() uint64 { return s.breaker.trips.Load() }

// call performs one synchronous store round trip, counting failures.
// A tripped breaker short-circuits the call without touching the
// network; the caller degrades exactly as it would on a failure.
func (s *NetStore) call(req wire.Request) (wire.Response, bool) {
	if !s.breaker.allow() {
		return wire.Response{}, false
	}
	resp, err := s.conn.Call(context.Background(), req)
	if err != nil {
		s.errs.Add(1)
		s.breaker.report(false)
		return wire.Response{}, false
	}
	s.breaker.report(true)
	return resp, true
}

// Lookup implements Store; a transport or protocol failure is a miss.
func (s *NetStore) Lookup(k sim.Key) (StoredResult, bool) {
	resp, ok := s.call(wire.Request{Op: wire.OpLookup, Key: k.String()})
	if !ok || !resp.Found {
		return StoredResult{}, false
	}
	var sr StoredResult
	if err := sr.UnmarshalBinary(resp.Value); err != nil {
		s.errs.Add(1)
		return StoredResult{}, false
	}
	s.hits.Add(1)
	return sr, true
}

// Record implements Store.
func (s *NetStore) Record(k sim.Key, v StoredResult) {
	data, _ := v.MarshalBinary() // never fails
	s.call(wire.Request{Op: wire.OpRecord, Key: k.String(), Value: data})
}

// LookupArtifact implements Store; failures are misses.
func (s *NetStore) LookupArtifact(k sim.Key) ([]byte, bool) {
	resp, ok := s.call(wire.Request{Op: wire.OpLookupArtifact, Key: k.String()})
	if !ok || !resp.Found {
		return nil, false
	}
	s.hits.Add(1)
	return append([]byte(nil), resp.Value...), true
}

// RecordArtifact implements Store. Non-JSON payloads are dropped here
// (the Store contract lets backends embed payloads in JSON documents)
// rather than burning a round trip on a frame the daemon would reject.
func (s *NetStore) RecordArtifact(k sim.Key, data []byte) {
	if !json.Valid(data) {
		return
	}
	s.call(wire.Request{Op: wire.OpRecordArtifact, Key: k.String(), Value: data})
}

// Flush implements Store: it asks the daemon to persist its backing
// store. Unlike lookups, a flush failure is surfaced — callers flush to
// establish durability, and a silent no-op would break that contract.
// A tripped breaker fails the flush immediately for the same reason.
// The underlying client bounds the round trip with its default call
// timeout, so a wedged daemon cannot hang a flush indefinitely.
func (s *NetStore) Flush() error {
	if !s.breaker.allow() {
		return fmt.Errorf("runner: net store flush: %w", ErrBreakerOpen)
	}
	if _, err := s.conn.Call(context.Background(), wire.Request{Op: wire.OpFlush}); err != nil {
		s.errs.Add(1)
		s.breaker.report(false)
		return fmt.Errorf("runner: net store flush: %w", err)
	}
	s.breaker.report(true)
	return nil
}

// ErrBreakerOpen is the failure a surfaced operation (Flush) returns
// while the circuit breaker is short-circuiting the daemon.
var ErrBreakerOpen = errors.New("circuit breaker open: daemon unreachable")

// breaker is a consecutive-failure circuit breaker with an
// operation-counted cooldown: no wall clock, so a fixed operation
// sequence always trips and recovers at the same points.
type breaker struct {
	threshold int // consecutive failures that trip (≤0 = disabled)
	cooldown  int // ops short-circuited per trip before a probe

	mu       sync.Mutex
	consec   int  // consecutive failures while closed
	skip     int  // short-circuited ops remaining in this cooldown
	halfOpen bool // cooldown drained; the next outcome decides alone
	trips    atomic.Uint64
}

// allow reports whether the next operation may call out. While the
// breaker is open it consumes one cooldown slot and says no; once the
// cooldown drains the operation goes through as the half-open probe.
func (b *breaker) allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.skip > 0 {
		b.skip--
		return false
	}
	return true
}

// report feeds an allowed operation's outcome back. A success closes
// the breaker; a failure trips it when it is half-open or when the
// consecutive-failure threshold is reached.
func (b *breaker) report(ok bool) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.consec = 0
		b.halfOpen = false
		return
	}
	b.consec++
	if b.halfOpen || b.consec >= b.threshold {
		b.trips.Add(1)
		b.skip = b.cooldown
		b.consec = 0
		b.halfOpen = true
	}
}
