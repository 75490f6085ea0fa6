package client_test

// Unit tests for the resilient client: address-list parsing, the
// deterministic backoff schedule (injected Sleep + JitterSeed), and
// transparent retry of synchronous calls across a dying connection.

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"resizecache/internal/simd/client"
	"resizecache/internal/simd/wire"
)

func TestParseAddrList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"tcp:a:1", []string{"tcp:a:1"}},
		{"tcp:a:1,tcp:b:2", []string{"tcp:a:1", "tcp:b:2"}},
		{" tcp:a:1 , unix:/s.sock ,", []string{"tcp:a:1", "unix:/s.sock"}},
		{",,", nil},
	}
	for _, c := range cases {
		if got := client.ParseAddrList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseAddrList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// sleeps runs one failing Call against an unreachable address and
// returns the backoff durations the retry policy chose.
func sleeps(t *testing.T, seed uint64) []time.Duration {
	t.Helper()
	var slept []time.Duration
	c, err := client.New("unix:"+filepath.Join(t.TempDir(), "nowhere.sock"), client.Options{
		DialTimeout: 50 * time.Millisecond,
		JitterSeed:  seed,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping of a nonexistent daemon succeeded")
	}
	return slept
}

func TestBackoffScheduleIsDeterministic(t *testing.T) {
	a := sleeps(t, 99)
	b := sleeps(t, 99)
	if len(a) == 0 {
		t.Fatal("no backoff sleeps recorded; the redial loop never backed off")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different backoff schedules:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, sleeps(t, 100)) {
		t.Error("different seeds produced identical jitter")
	}
	for i, d := range a {
		lo := client.DefaultBackoffBase << i
		if lo > client.DefaultBackoffMax {
			lo = client.DefaultBackoffMax
		}
		hi := lo + client.DefaultBackoffBase
		if d < lo || d >= hi {
			t.Errorf("backoff %d = %v, outside [%v, %v)", i, d, lo, hi)
		}
	}
}

// flakyServer answers wire requests but hangs up after every frame it
// writes on its first connection, forcing the client to reconnect.
func flakyServer(t *testing.T) (addr string) {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "flaky.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns := 0
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conns++
			first := conns == 1
			go func() {
				defer nc.Close()
				for {
					var req wire.Request
					if wire.ReadFrame(nc, &req) != nil {
						return
					}
					if first {
						return // hang up instead of answering
					}
					wire.WriteFrame(nc, wire.Response{ID: req.ID, Kind: wire.KindReply})
				}
			}()
		}
	}()
	return "unix:" + ln.Addr().String()
}

func TestCallRetriesAcrossReconnect(t *testing.T) {
	c, err := client.DialWith(flakyServer(t), client.Options{
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The first connection dies on the request; the client must retry it
	// on a fresh socket and succeed without the caller noticing.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping across a dying connection: %v", err)
	}
	if got := c.Redials(); got != 1 {
		t.Errorf("Redials = %d, want 1", got)
	}
}

func TestCallFailsFastOnRemoteError(t *testing.T) {
	// A server that rejects every request with a KindError frame: the
	// client must surface a *RemoteError without retrying (retries are
	// for transport faults, not remote rejections).
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "reject.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	requests := make(chan struct{}, 64)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				for {
					var req wire.Request
					if wire.ReadFrame(nc, &req) != nil {
						return
					}
					requests <- struct{}{}
					wire.WriteFrame(nc, wire.Response{ID: req.ID, Kind: wire.KindError, Err: "nope"})
				}
			}()
		}
	}()

	c, err := client.Dial("unix:" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Ping(context.Background())
	var re *client.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if len(requests) != 1 {
		t.Errorf("server saw %d requests, want 1 (no retry of a rejection)", len(requests))
	}
}

// closingServer answers one request per connection and hangs up right
// after its last frame: a plan request gets results frames result
// frames and KindDone, anything else one KindReply. requests counts the
// requests it read.
func closingServer(t *testing.T, results int, requests *atomic.Int64) (addr string) {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "closing.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				var req wire.Request
				if wire.ReadFrame(nc, &req) != nil {
					return
				}
				requests.Add(1)
				if req.Op != wire.OpPlan {
					wire.WriteFrame(nc, wire.Response{ID: req.ID, Kind: wire.KindReply})
					return
				}
				for i := range results {
					wire.WriteFrame(nc, wire.Response{ID: req.ID, Kind: wire.KindResult, Index: i})
				}
				wire.WriteFrame(nc, wire.Response{ID: req.ID, Kind: wire.KindDone})
			}()
		}
	}()
	return "unix:" + ln.Addr().String()
}

// TestExchangeOutlivesDaemonClose: a daemon that closes the connection
// right after an exchange's last frames has still answered it. The
// client's read loop queues those frames before it reports the close,
// so every run must deliver them — a plan stream all its results and a
// clean end, a call its one reply without a retry.
func TestExchangeOutlivesDaemonClose(t *testing.T) {
	const runs, results = 200, 4
	t.Run("stream", func(t *testing.T) {
		var requests atomic.Int64
		addr := closingServer(t, results, &requests)
		lost := 0
		for range runs {
			c, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			err = c.Stream(context.Background(), wire.Request{Op: wire.OpPlan},
				func(wire.Response) error { got++; return nil })
			c.Close()
			if err != nil || got != results {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("%d of %d plan streams lost frames the daemon sent before closing", lost, runs)
		}
	})
	t.Run("call", func(t *testing.T) {
		var requests atomic.Int64
		addr := closingServer(t, results, &requests)
		for range runs {
			c, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			err = c.Ping(context.Background())
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		if n := requests.Load(); n != runs {
			t.Errorf("%d calls reached the daemon %d times: replies sent before a close were dropped and retried", runs, n)
		}
	})
}
