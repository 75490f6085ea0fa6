// Command figures regenerates the paper's tables and figures.
//
// Usage:
//
//	figures -exp all                 # everything (minutes)
//	figures -exp table1              # hybrid size schedule
//	figures -exp table2              # base configuration
//	figures -exp fig4                # ways vs sets across associativity
//	figures -exp fig5                # per-app comparison at 4-way
//	figures -exp fig6                # hybrid organization
//	figures -exp fig7                # d-cache static vs dynamic
//	figures -exp fig8                # i-cache static vs dynamic
//	figures -exp fig9                # resizing both caches
//	figures -exp l2                  # extension: resizing the shared L2
//	figures -exp fig4 -instr 500000  # faster, lower fidelity
//	figures -exp fig5 -apps gcc,vpr  # restrict benchmarks
//	figures -exp all -resume out/results.json   # resumable across runs
//	figures -exp fig4 -server unix:/tmp/simd.sock  # run on a simd daemon
//
// Every figure runs through the declarative batch API: its grid expands
// to a resizecache.Plan and executes via Session.Run, which enqueues
// the whole grid's cold profiling sweeps on the shared worker pool in
// one batched pass and streams scenario results as they complete
// (-progress shows the completed-of-total count). Overlapping
// experiments — Figure 4's grid inside Figure 6's, the shared baselines
// of Figures 5 and 9 — simulate each distinct configuration once, and
// whole profiling sweeps memoize as sweep-level artifacts, so a figure
// repeating a grid an earlier figure profiled skips the sweep outright.
// With -resume, results and artifacts also persist to a JSON store
// keyed by content fingerprint, so an interrupted or repeated
// invocation re-simulates only what is missing (persisted simulation
// *errors* replay without re-running; only cancellations are retried).
// -memolimit bounds the in-memory memo table with LRU eviction.
// With -server, plans execute on a long-lived simd daemon (cmd/simd)
// instead of in-process: simulations partition across the daemon's
// worker shards and memoize against every other client's work, so a
// second client replaying a figure reports zero new simulations.
// -stats prints the scheduler's hit/miss, batch, and artifact counters
// for this invocation to stderr on exit (against a daemon, the delta of
// its cumulative counters). Interrupting with ^C cancels cleanly
// between simulations (and, with -resume, flushes what completed).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"resizecache"
	"resizecache/figures"
	"resizecache/internal/experiment"
	"resizecache/internal/prof"
	"resizecache/internal/runner"
)

// main defers to realMain so the profiling stop (and every other defer)
// runs before the process exits — os.Exit would skip them.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		exp      = flag.String("exp", "all", "experiment: all, table1, table2, fig4..fig9, l2, sens, sens-*")
		instr    = flag.Uint64("instr", 1_500_000, "instructions per simulation")
		apps     = flag.String("apps", "", "comma-separated benchmark subset (default all twelve)")
		par      = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		resume   = flag.String("resume", "", "JSON result/artifact-store path for cross-process resume")
		server   = flag.String("server", "", "run plans on a simd daemon at this address (unix:<path> or host:port; a comma-separated list fails over) instead of in-process")
		stats    = flag.Bool("stats", false, "print runner hit/miss statistics to stderr")
		memo     = flag.Int("memolimit", 65536, "max in-memory memoized results, LRU-evicted beyond (0 = unbounded)")
		progress = flag.Bool("progress", false, "print completed-of-total scenario progress to stderr (figure experiments only)")
		sample   = flag.Bool("sample", false, "interval-sampled simulation (default schedule): several times faster, EDP reductions become estimates with error bars")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// First ^C cancels gracefully (between simulations, flushing the
	// result store); un-registering then restores the default terminate
	// behaviour so a second ^C force-quits.
	go func() {
		<-ctx.Done()
		stop()
	}()

	var appList []string
	if *apps != "" {
		appList = strings.Split(*apps, ",")
	}

	if sensExperiment(*exp) {
		// The sensitivity extensions vary parameters (subarray size, L2
		// geometry) a Scenario cannot express, so they run on the
		// experiment layer directly — batch-scheduled on their own runner,
		// without the plan-level progress stream.
		if *progress {
			fmt.Fprintln(os.Stderr, "figures: -progress is not supported for sensitivity experiments")
		}
		if *sample {
			fmt.Fprintln(os.Stderr, "figures: -sample is not supported for sensitivity experiments (they bypass the plan protocol)")
		}
		if *server != "" {
			fmt.Fprintln(os.Stderr, "figures: -server is not supported for sensitivity experiments (they bypass the plan protocol)")
			return 1
		}
		if err := runSens(ctx, *exp, *instr, appList, *par, *resume, *memo, *stats); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 1
		}
		return 0
	}

	var session resizecache.Executor
	if *server != "" {
		// The daemon owns the workers, gangs, and store; client-side
		// overrides would silently not apply.
		if *resume != "" {
			fmt.Fprintln(os.Stderr, "figures: -server and -resume are mutually exclusive (the daemon owns the store; start simd with -store)")
			return 1
		}
		remote, err := resizecache.Dial(*server)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 1
		}
		defer remote.Close()
		session = remote
	} else {
		local, err := resizecache.NewSessionWith(resizecache.SessionOptions{
			Workers: *par, StorePath: *resume, MemoLimit: *memo})
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 1
		}
		session = local
	}

	fopts := figures.Options{Instructions: *instr, Apps: appList}
	if *sample {
		fopts.Sampling = resizecache.DefaultSampling()
	}
	if *progress {
		fopts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rfigures: %d/%d scenarios", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	// Snapshot before running: a RemoteSession's counters are the
	// daemon's cumulative view across all clients, so -stats reports the
	// delta this invocation caused. For a fresh local session the delta
	// equals the cumulative counters.
	before := session.Stats()
	runErr := run(ctx, *exp, session, fopts)

	if *resume != "" {
		if err := session.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
		} else {
			fmt.Fprintf(os.Stderr, "figures: result store flushed to %s\n", *resume)
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "figures:", session.Stats().Delta(before))
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "figures:", runErr)
		return 1
	}
	return 0
}

// run regenerates the tables and figures selected by exp through the
// session's batch API.
func run(ctx context.Context, exp string, s resizecache.Executor, fopts figures.Options) error {
	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	if want("table1") {
		ran = true
		out, err := figures.Table1()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("table2") {
		ran = true
		fmt.Println(figures.Table2())
	}
	if want("fig4") {
		ran = true
		f, err := figures.Figure4(ctx, s, fopts)
		if err != nil {
			return err
		}
		fmt.Println(f.Render())
	}
	if want("fig5") {
		ran = true
		for _, side := range []resizecache.Sides{resizecache.DOnly, resizecache.IOnly} {
			f, err := figures.Figure5(ctx, s, side, fopts)
			if err != nil {
				return err
			}
			fmt.Println(f.Render())
		}
	}
	if want("fig6") {
		ran = true
		f, err := figures.Figure6(ctx, s, fopts)
		if err != nil {
			return err
		}
		fmt.Println(figures.RenderFigure6(f))
	}
	if want("fig7") {
		ran = true
		inord, ooo, err := figures.Figure7(ctx, s, fopts)
		if err != nil {
			return err
		}
		fmt.Println("Figure 7 (a):", "\n"+inord.Render())
		fmt.Println("Figure 7 (b):", "\n"+ooo.Render())
	}
	if want("fig8") {
		ran = true
		inord, ooo, err := figures.Figure8(ctx, s, fopts)
		if err != nil {
			return err
		}
		fmt.Println("Figure 8 (a):", "\n"+inord.Render())
		fmt.Println("Figure 8 (b):", "\n"+ooo.Render())
	}
	if want("fig9") {
		ran = true
		f, err := figures.Figure9(ctx, s, fopts)
		if err != nil {
			return err
		}
		fmt.Println(f.Render())
	}
	// The L2-resizing extension is not part of "all": its dynamic panel
	// profiles the controller grid over the L2 schedule for every app.
	if exp == "l2" {
		ran = true
		for _, strat := range []resizecache.Strategy{resizecache.Static, resizecache.Dynamic} {
			f, err := figures.FigureL2(ctx, s, strat, fopts)
			if err != nil {
				return err
			}
			fmt.Println(f.Render())
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// sensExperiment reports whether exp names an extension sensitivity
// sweep (not part of "all").
func sensExperiment(exp string) bool {
	switch exp {
	case "sens", "sens-subarray", "sens-interval", "sens-l2":
		return true
	}
	return false
}

// runSens runs the extension sensitivity sweeps on the experiment layer.
func runSens(ctx context.Context, exp string, instr uint64, apps []string, par int, resume string, memo int, stats bool) error {
	ropts := runner.Options{Workers: par, MemoLimit: memo}
	var store *runner.DiskStore
	if resume != "" {
		var err error
		store, err = runner.OpenDiskStore(resume)
		if err != nil {
			return err
		}
		ropts.Store = store
	}
	r := runner.New(ropts)

	opts := experiment.DefaultOptions()
	opts.Instructions = instr
	opts.Apps = apps

	sens := func(name string) bool { return exp == "sens" || exp == name }
	var err error
	if err == nil && sens("sens-subarray") {
		var rows []experiment.SensitivityRow
		if rows, err = experiment.SubarraySensitivity(ctx, r, opts); err == nil {
			fmt.Println(experiment.RenderSensitivity(
				"Sensitivity: subarray granularity (static selective-sets d-cache)", rows))
		}
	}
	if err == nil && sens("sens-interval") {
		var rows []experiment.SensitivityRow
		if rows, err = experiment.IntervalSensitivity(ctx, r, opts); err == nil {
			fmt.Println(experiment.RenderSensitivity(
				"Sensitivity: dynamic interval (in-order engine, d-cache)", rows))
		}
	}
	if err == nil && sens("sens-l2") {
		var rows []experiment.SensitivityRow
		if rows, err = experiment.L2Sensitivity(ctx, r, opts); err == nil {
			fmt.Println(experiment.RenderSensitivity(
				"Sensitivity: L2 capacity (static selective-sets d-cache)", rows))
		}
	}

	if store != nil {
		if ferr := store.Flush(); ferr != nil {
			fmt.Fprintln(os.Stderr, "figures:", ferr)
		} else {
			fmt.Fprintf(os.Stderr, "figures: result store %s holds %d results, %d sweep artifacts\n",
				store.Path(), store.Len(), store.ArtifactLen())
		}
	}
	if stats {
		fmt.Fprintln(os.Stderr, "figures:", r.Stats())
	}
	return err
}
