// Command simd is the long-lived simulation daemon: it listens on a TCP
// or unix socket, accepts serialized plans and store operations over the
// wire protocol of internal/simd/wire, and executes everything through
// one shared session — so gang coalescing, in-flight dedup, and
// memoization work across every connected client, and a client replaying
// a plan another client already ran completes with zero new simulations.
//
// Usage:
//
//	simd -listen unix:/tmp/simd.sock -store results.json
//	simd -listen tcp:127.0.0.1:9821 -workers 8
//
// Clients connect with resizecache.Dial (figures -server, respcache
// -server) or runner.OpenNetStore. The first SIGINT/SIGTERM drains
// gracefully: the daemon stops accepting, in-flight plans run to
// completion, and the backing store is flushed; a second signal aborts
// in-flight work (which still flushes what completed).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resizecache/internal/runner"
	"resizecache/internal/simd"
)

// main defers to realMain so deferred cleanups run before the process
// exits — os.Exit would skip them.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		listen  = flag.String("listen", "tcp:127.0.0.1:9821", "listen address: unix:<path> or tcp:<host:port> (a bare path or host:port also works)")
		workers = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		store   = flag.String("store", "", "JSON result/artifact-store path backing the daemon (empty = in-memory only)")
		memo    = flag.Int("memolimit", 65536, "max in-memory memoized results, LRU-evicted beyond (0 = unbounded)")
		idle    = flag.Duration("idletimeout", 5*time.Minute, "close connections idle (no frames, no in-flight requests) this long; clients keep-alive with pings (0 = never)")
		verbose = flag.Bool("v", false, "log client connects/disconnects to stderr")
	)
	flag.Parse()

	opts := simd.Options{Workers: *workers, MemoLimit: *memo, IdleTimeout: *idle}
	if *store != "" {
		diskStore, err := runner.OpenDiskStore(*store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simd:", err)
			return 1
		}
		opts.Store = diskStore
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	srv, err := simd.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		return 1
	}
	ln, err := simd.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// First signal: graceful drain (in-flight plans finish, store
		// flushes). A second signal aborts in-flight work; a third gets
		// the default terminate behaviour once stop() has unregistered.
		fmt.Fprintln(os.Stderr, "simd: draining (signal again to abort in-flight work)")
		second := make(chan os.Signal, 1)
		signal.Notify(second, os.Interrupt, syscall.SIGTERM)
		<-second
		signal.Stop(second)
		stop()
		fmt.Fprintln(os.Stderr, "simd: aborting in-flight work")
		srv.Abort()
	}()

	fmt.Fprintf(os.Stderr, "simd: listening on %s (workers=%d, store=%q)\n",
		*listen, *workers, *store)
	serveErr := srv.Serve(ctx, ln)
	fmt.Fprintln(os.Stderr, "simd:", srv.Stats())
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, "simd:", serveErr)
		return 1
	}
	return 0
}
