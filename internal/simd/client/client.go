// Package client implements the client side of the simd wire protocol:
// one multiplexed connection over which synchronous store calls (Call)
// and streaming plan submissions (Stream) interleave freely. Both
// runner.NetStore and the facade's RemoteSession are built on a Conn.
//
// A Conn treats transport failures as routine inputs. It owns a list of
// daemon addresses and one live socket at a time; when the socket dies,
// the next operation redials with capped exponential backoff plus
// jitter, rotating through the address list so a dead daemon fails over
// to its neighbours. Synchronous calls (all of which are idempotent
// store/stats/ping round trips) retry transparently across reconnects
// and carry a bounded per-request deadline; plan streams surface a
// *TransportError instead, so the caller — which alone knows which
// results were already delivered — can resubmit only the undelivered
// remainder (see resizecache.RemoteSession.Run).
//
// The retry machinery is deterministic-core friendly: it never reads
// the wall clock (timeouts and backoff run on context deadlines and
// timers), and jitter comes from an injectable splitmix64 stream, not
// math/rand — tests inject Options.Sleep and Options.JitterSeed to make
// every schedule reproducible.
package client

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"resizecache/internal/simd/wire"
)

// Defaults for the zero Options. Exported so callers (resizecache.Dial,
// runner.OpenNetStore) can document the values they inherit.
const (
	// DefaultCallTimeout bounds each synchronous Call when neither the
	// caller's context nor Options.CallTimeout says otherwise: a dead or
	// wedged daemon costs a bounded wait, never a hang.
	DefaultCallTimeout = 15 * time.Second
	// DefaultDialTimeout bounds one connection attempt to one address.
	DefaultDialTimeout = 5 * time.Second
	// DefaultDialPasses is how many full passes over the address list a
	// redial makes (with backoff between passes) before giving up.
	DefaultDialPasses = 3
	// DefaultBackoffBase / DefaultBackoffMax shape the capped
	// exponential backoff between redial passes.
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// ErrClosed is returned by operations on a Conn after Close. It is not
// a *TransportError: the connection was torn down deliberately, so
// nothing should retry or fail over.
var ErrClosed = errors.New("simd: client closed")

// RemoteError is a request-level failure reported by the daemon (a
// KindError frame): the request reached the server and was rejected, as
// opposed to a transport failure.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "simd: remote error: " + e.Msg }

// TransportError is a connection-level failure: a dial, write, or read
// failed, and the request may or may not have reached the daemon.
// Call retries idempotent requests across it automatically; Stream
// returns it so the caller can reconnect-and-resubmit undelivered work.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return "simd: transport: " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err is (or wraps) a transport failure —
// the class of error a resubmission can heal.
func IsTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// transport wraps err as a *TransportError, preserving an existing one.
func transport(err error) error {
	if err == nil || IsTransport(err) {
		return err
	}
	return &TransportError{Err: err}
}

// ParseAddr splits a simd address into a net.Dial network and target.
// Accepted forms: "unix:<path>", "tcp:<host:port>", a bare path
// containing a path separator (unix), or a bare host:port (tcp).
func ParseAddr(addr string) (network, target string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	case strings.ContainsAny(addr, "/\\"):
		return "unix", addr
	default:
		return "tcp", addr
	}
}

// ParseAddrList splits a comma-separated simd address list, trimming
// whitespace and dropping empty elements. Every client entry point
// accepts such a list; the addresses are failover peers tried in
// round-robin order.
func ParseAddrList(addr string) []string {
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// Options tune a Conn's resilience machinery. The zero value uses the
// Default* constants.
type Options struct {
	// CallTimeout bounds each synchronous Call whose context has no
	// deadline of its own (0 = DefaultCallTimeout; negative = none).
	CallTimeout time.Duration
	// DialTimeout bounds one connection attempt (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// DialPasses is how many full passes over the address list a
	// (re)dial makes before reporting the daemons unreachable
	// (0 = DefaultDialPasses). Backoff sleeps separate passes, not
	// individual addresses — failover within a pass is immediate.
	DialPasses int
	// BackoffBase / BackoffMax shape the capped exponential backoff
	// between redial passes: pass n waits min(Base<<n, Max) plus jitter
	// in [0, Base) (0 = the Default* constants).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Sleep, when non-nil, replaces the real backoff wait — tests
	// inject it to run retry schedules instantly while still observing
	// the durations the policy chose.
	Sleep func(ctx context.Context, d time.Duration) error
	// JitterSeed seeds the deterministic jitter stream (0 = derived
	// from the process ID and address list, so concurrent processes
	// retrying against one dead daemon spread out).
	JitterSeed uint64
}

// withDefaults resolves zero fields to the package defaults.
func (o Options) withDefaults() Options {
	if o.CallTimeout == 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.DialPasses <= 0 {
		o.DialPasses = DefaultDialPasses
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.Sleep == nil {
		o.Sleep = sleepCtx
	}
	return o
}

// sleepCtx is the real backoff wait: a timer raced against ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Conn is a resilient, multiplexed client connection to one or more
// simd daemons. Safe for concurrent use: requests carry unique IDs, a
// single read loop per live socket routes response frames to their
// callers, writes are serialized, and reconnect/failover is
// single-flight across callers.
type Conn struct {
	addrs []string
	opts  Options

	mu        sync.Mutex
	sock      *socket
	next      int // round-robin cursor into addrs
	closed    bool
	dialing   bool
	dialDone  chan struct{}
	jitter    uint64 // splitmix64 state
	connected bool   // a socket has been established at least once
	redials   uint64 // sockets established beyond the first
}

// New returns a Conn over a comma-separated address list without
// connecting: the first operation dials (with failover and backoff).
// Use Dial for the eager, fail-fast variant.
func New(addr string, opts Options) (*Conn, error) {
	addrs := ParseAddrList(addr)
	if len(addrs) == 0 {
		return nil, errors.New("simd: no daemon address given")
	}
	opts = opts.withDefaults()
	c := &Conn{addrs: addrs, opts: opts, jitter: opts.JitterSeed}
	if c.jitter == 0 {
		c.jitter = uint64(os.Getpid())<<32 ^ hashAddrs(addrs)
	}
	return c, nil
}

// Dial connects to a simd daemon. addr is a comma-separated failover
// list; each address is tried once (no backoff), so an unreachable
// fabric fails fast at dial time. See ParseAddr for address forms.
// Outside tests only the benchmark harness calls it rather than
// DialWith; it goes with the next benchmark change.
func Dial(addr string) (*Conn, error) { return DialWith(addr, Options{}) }

// DialWith is Dial with explicit Options.
func DialWith(addr string, opts Options) (*Conn, error) {
	c, err := New(addr, opts)
	if err != nil {
		return nil, err
	}
	s, err := c.dialOnce()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.sock = s
	c.connected = true
	c.mu.Unlock()
	return c, nil
}

// hashAddrs is an FNV-style fold of the address list, used only to
// spread default jitter seeds across differently-targeted clients.
func hashAddrs(addrs []string) uint64 {
	h := uint64(14695981039346656037)
	for _, a := range addrs {
		for i := 0; i < len(a); i++ {
			h = (h ^ uint64(a[i])) * 1099511628211
		}
	}
	return h
}

// Addrs returns the failover address list the Conn rotates through.
func (c *Conn) Addrs() []string { return append([]string(nil), c.addrs...) }

// Redials reports how many replacement sockets the Conn has
// established after its first — the number of reconnects survived.
func (c *Conn) Redials() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redials
}

// Close tears down the connection; pending calls fail with ErrClosed or
// the socket close error, and no operation redials afterwards.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	s := c.sock
	c.sock = nil
	c.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.close()
}

// rand64 advances the jitter stream (splitmix64): deterministic for a
// fixed seed, so tests can replay exact backoff schedules.
func (c *Conn) rand64() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jitter += 0x9e3779b97f4a7c15
	z := c.jitter
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// backoff returns the wait before redial pass n (0-based): capped
// exponential plus jitter in [0, base).
func (c *Conn) backoff(pass int) time.Duration {
	base, max := c.opts.BackoffBase, c.opts.BackoffMax
	d := base
	for i := 0; i < pass && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d + time.Duration(c.rand64()%uint64(base))
}

// nextAddr advances the round-robin cursor. After a socket dies the
// cursor already points past its address, so the first redial attempt
// lands on the next daemon in the list — failover before retry.
func (c *Conn) nextAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addr := c.addrs[c.next%len(c.addrs)]
	c.next++
	return addr
}

// dialOnce makes one failover pass over the address list with no
// backoff: the fail-fast policy of Dial itself.
func (c *Conn) dialOnce() (*socket, error) {
	var lastErr error
	for range c.addrs {
		network, target := ParseAddr(c.nextAddr())
		nc, err := net.DialTimeout(network, target, c.opts.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		return newSocket(nc), nil
	}
	return nil, transport(lastErr)
}

// redial makes up to DialPasses failover passes, sleeping the backoff
// schedule between passes. Callers must not hold c.mu.
func (c *Conn) redial(ctx context.Context) (*socket, error) {
	var lastErr error
	for pass := 0; pass < c.opts.DialPasses; pass++ {
		if pass > 0 {
			if err := c.opts.Sleep(ctx, c.backoff(pass-1)); err != nil {
				return nil, err
			}
		}
		s, err := c.dialOnce()
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, transport(lastErr)
}

// socket returns the live socket, redialing (single-flight) if the
// previous one died. Concurrent callers wait for the in-flight dial
// and then re-check rather than dog-piling the daemons.
func (c *Conn) socket(ctx context.Context) (*socket, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if s := c.sock; s != nil && s.alive() {
			c.mu.Unlock()
			return s, nil
		}
		if c.dialing {
			done := c.dialDone
			c.mu.Unlock()
			select {
			case <-done:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		c.dialing = true
		c.dialDone = make(chan struct{})
		first := !c.connected
		c.mu.Unlock()

		s, err := c.redial(ctx)

		c.mu.Lock()
		c.dialing = false
		close(c.dialDone)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if c.closed {
			c.mu.Unlock()
			s.close()
			return nil, ErrClosed
		}
		c.sock = s
		c.connected = true
		if !first {
			c.redials++
		}
		c.mu.Unlock()
		return s, nil
	}
}

// drop retires a dead socket so the next operation redials. Another
// caller may have replaced it already; only the current one is cleared.
func (c *Conn) drop(s *socket) {
	c.mu.Lock()
	if c.sock == s {
		c.sock = nil
	}
	c.mu.Unlock()
	s.close()
}

// reqCtx applies the per-request deadline policy: a context that
// already has a deadline is respected; otherwise CallTimeout bounds the
// exchange (negative disables).
func (c *Conn) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opts.CallTimeout < 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.opts.CallTimeout)
}

// Call performs one synchronous request and returns its single reply
// frame. Transport failures retry on a fresh socket (failover +
// backoff) up to DialPasses times — every synchronous op in the
// protocol is idempotent, so a request that died in flight is safe to
// repeat. A KindError reply is surfaced as a *RemoteError; the total
// exchange is bounded by CallTimeout when ctx carries no deadline.
func (c *Conn) Call(ctx context.Context, req wire.Request) (wire.Response, error) {
	ctx, cancel := c.reqCtx(ctx)
	defer cancel()
	var lastErr error
	for attempt := 0; attempt < c.opts.DialPasses; attempt++ {
		s, err := c.socket(ctx)
		if err != nil {
			return wire.Response{}, err
		}
		resp, err := s.call(ctx, req)
		if err == nil {
			return resp, nil
		}
		if !IsTransport(err) {
			// Remote rejection or context expiry: retrying cannot help.
			return wire.Response{}, err
		}
		c.drop(s)
		lastErr = err
	}
	return wire.Response{}, lastErr
}

// Ping round-trips the OpPing health check; nil means a live daemon
// answered on a validated connection.
func (c *Conn) Ping(ctx context.Context) error {
	_, err := c.Call(ctx, wire.Request{Op: wire.OpPing})
	return err
}

// Stream performs one streaming request (OpPlan), invoking frame for
// every KindResult until the server's KindDone. One socket serves the
// whole stream: if the transport dies mid-stream a *TransportError is
// returned (after the next operation's redial the caller resubmits what
// it has not yet received — the caller, not the Conn, knows which
// results were delivered). Cancelling ctx — or a frame callback error —
// sends a best-effort OpCancel and keeps draining the exchange to its
// terminal frame so the connection's multiplexing stays healthy, then
// returns the cancellation cause. A KindError terminal frame returns a
// *RemoteError.
func (c *Conn) Stream(ctx context.Context, req wire.Request, frame func(wire.Response) error) error {
	s, err := c.socket(ctx)
	if err != nil {
		return err
	}
	err = s.stream(ctx, req, frame)
	if IsTransport(err) {
		c.drop(s)
	}
	return err
}

// socket is one live transport: a net.Conn, its read loop, and the
// pending-exchange table. A Conn replaces its socket on failure; the
// exchange machinery below is unchanged from the single-socket client.
type socket struct {
	nc  net.Conn
	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan wire.Response
	err     error
	closed  chan struct{} // closed when the read loop exits
}

func newSocket(nc net.Conn) *socket {
	s := &socket{
		nc:      nc,
		pending: make(map[uint64]chan wire.Response),
		closed:  make(chan struct{}),
	}
	go s.readLoop()
	return s
}

// alive reports whether the read loop is still running.
func (s *socket) alive() bool {
	select {
	case <-s.closed:
		return false
	default:
		return true
	}
}

func (s *socket) close() error { return s.nc.Close() }

// fatal returns the error that terminated the read loop as a transport
// error.
func (s *socket) fatal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return transport(s.err)
}

// readLoop routes incoming frames to their exchange's channel. A
// decode or transport error terminates the socket: the loop records
// the error and closes the broadcast channel every waiter selects on.
func (s *socket) readLoop() {
	for {
		var resp wire.Response
		if err := wire.ReadFrame(s.nc, &resp); err != nil {
			s.mu.Lock()
			s.err = err
			close(s.closed)
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		ch := s.pending[resp.ID]
		if resp.Kind != wire.KindResult {
			// A terminal frame (done/reply/error) ends the exchange.
			delete(s.pending, resp.ID)
		}
		s.mu.Unlock()
		if ch != nil {
			// call buffers its single reply and stream drains to the
			// terminal frame before abandoning its channel, so this send
			// cannot block the loop indefinitely.
			ch <- resp
		}
	}
}

// send registers a new exchange and writes its request frame. buffered
// sizes the exchange channel: 1 for single-reply calls, larger for
// streams so the read loop keeps flowing while the consumer works.
func (s *socket) send(req wire.Request, buffered int) (chan wire.Response, uint64, error) {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, 0, transport(err)
	}
	s.nextID++
	id := s.nextID
	ch := make(chan wire.Response, buffered)
	s.pending[id] = ch
	s.mu.Unlock()

	req.V = wire.ProtocolVersion
	req.ID = id
	s.wmu.Lock()
	err := wire.WriteFrame(s.nc, req)
	s.wmu.Unlock()
	if err != nil {
		s.forget(id)
		return nil, 0, transport(err)
	}
	return ch, id, nil
}

// forget abandons an exchange: late frames for the ID are dropped by
// the read loop.
func (s *socket) forget(id uint64) {
	s.mu.Lock()
	delete(s.pending, id)
	s.mu.Unlock()
}

// call performs one synchronous exchange on this socket.
func (s *socket) call(ctx context.Context, req wire.Request) (wire.Response, error) {
	ch, id, err := s.send(req, 1)
	if err != nil {
		return wire.Response{}, err
	}
	reply := func(resp wire.Response) (wire.Response, error) {
		if resp.Kind == wire.KindError {
			return wire.Response{}, &RemoteError{Msg: resp.Err}
		}
		return resp, nil
	}
	select {
	case resp := <-ch:
		return reply(resp)
	case <-ctx.Done():
		s.forget(id)
		return wire.Response{}, ctx.Err()
	case <-s.closed:
		// The read loop queues every frame before it closes s.closed, so
		// a reply that arrived before the connection died is waiting.
		select {
		case resp := <-ch:
			return reply(resp)
		default:
			return wire.Response{}, s.fatal()
		}
	}
}

// stream performs one streaming exchange on this socket; see
// Conn.Stream for the contract.
func (s *socket) stream(ctx context.Context, req wire.Request, frame func(wire.Response) error) error {
	ch, id, err := s.send(req, 64)
	if err != nil {
		return err
	}
	done := ctx.Done()
	var cause error // first cancellation/callback error; wins over later frames
	abandon := func(err error) {
		if cause != nil {
			return
		}
		cause = err
		done = nil // drain on frames alone from here
		s.wmu.Lock()
		// Best-effort: if the cancel frame cannot be written the read
		// loop is about to fail and end the drain anyway.
		_ = wire.WriteFrame(s.nc, wire.Request{V: wire.ProtocolVersion, Op: wire.OpCancel, Target: id})
		s.wmu.Unlock()
	}
	// handle consumes one frame; ended reports a terminal frame, and err
	// is then the exchange's outcome.
	handle := func(resp wire.Response) (ended bool, err error) {
		switch resp.Kind {
		case wire.KindDone:
			return true, cause
		case wire.KindError:
			if cause != nil {
				return true, cause
			}
			return true, &RemoteError{Msg: resp.Err}
		}
		if cause == nil { // after cancellation, drain without delivering
			if err := frame(resp); err != nil {
				abandon(err)
			}
		}
		return false, nil
	}
	for {
		select {
		case resp := <-ch:
			if ended, err := handle(resp); ended {
				return err
			}
		case <-done:
			abandon(ctx.Err())
			// Keep draining: the terminal frame (or connection close)
			// ends the loop.
		case <-s.closed:
			// The read loop queues every frame before it closes s.closed,
			// so the frames that arrived before the connection died are
			// all in ch: deliver them first. A terminal frame among them
			// ends the exchange as if the connection had stayed up.
			for {
				select {
				case resp := <-ch:
					if ended, err := handle(resp); ended {
						return err
					}
				default:
					if cause != nil {
						return cause
					}
					return s.fatal()
				}
			}
		}
	}
}
