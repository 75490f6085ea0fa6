// Command respcache runs one scenario through the public facade and
// prints a detailed report: the profiled winner per resized cache, the
// energy-delay outcome versus the non-resizable baseline, the energy
// breakdown, and (with -stats) the run-orchestration counters.
//
// Examples:
//
//	respcache -bench gcc -org sets
//	respcache -bench compress -org ways -sides d
//	respcache -bench su2cor -org sets -strategy dynamic -engine inorder
//	respcache -bench vpr -org hybrid -l2org ways           # L1s + L2
//	respcache -bench gcc -org none -l2org sets -l2dynamic  # L2 alone
//	respcache -bench gcc -org sets -hierarchy l2+l3 -stats
//	respcache -bench gcc -org sets -server unix:/tmp/simd.sock  # shared memo fabric
//
// With -server, simulations still run in this process but the memo
// store round-trips to a simd daemon (cmd/simd): results another client
// already computed are store hits here (visible as remote hits under
// -stats), and this run's fresh results are recorded for everyone else.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"resizecache"
	"resizecache/internal/prof"
	"resizecache/internal/runner"
)

// parseHierarchy maps the -hierarchy flag to a preset; the String()
// forms the tool prints round-trip too.
func parseHierarchy(s string) (resizecache.Hierarchy, error) {
	switch s {
	case "", "base", "512K-l2":
		return resizecache.BaseL2, nil
	case "no-l2":
		return resizecache.NoL2, nil
	case "small-l2", "256K-l2":
		return resizecache.SmallL2, nil
	case "big-l2", "1M-l2":
		return resizecache.BigL2, nil
	case "l2+l3":
		return resizecache.DeepL2L3, nil
	default:
		return 0, fmt.Errorf("unknown hierarchy %q (base, no-l2, small-l2, big-l2, l2+l3)", s)
	}
}

// parseSides maps the -sides flag to a Sides value; the String() forms
// round-trip too.
func parseSides(s string) (resizecache.Sides, error) {
	switch s {
	case "", "both", "d+i-caches":
		return resizecache.BothSides, nil
	case "d", "d-cache":
		return resizecache.DOnly, nil
	case "i", "i-cache":
		return resizecache.IOnly, nil
	case "l2", "l2-cache":
		return resizecache.L2Only, nil
	default:
		return 0, fmt.Errorf("unknown sides %q (both, d, i, l2)", s)
	}
}

// scenarioFromFlags translates the flag set into a facade Scenario.
func scenarioFromFlags(bench, org, strategy, sides, engine, hierarchy, l2org string,
	l2static, l2dynamic bool, assoc, l2assoc int, instr uint64) (resizecache.Scenario, error) {

	var sc resizecache.Scenario
	sc.Benchmark = bench
	sc.Instructions = instr
	sc.Assoc = assoc

	var err error
	if sc.Organization, err = resizecache.ParseOrganization(org); err != nil {
		return sc, err
	}
	if sc.Strategy, err = resizecache.ParseStrategy(strategy); err != nil {
		return sc, err
	}
	if sc.Sides, err = parseSides(sides); err != nil {
		return sc, err
	}
	if sc.Hierarchy, err = parseHierarchy(hierarchy); err != nil {
		return sc, err
	}
	switch engine {
	case "", "ooo":
	case "inorder":
		sc.InOrder = true
	default:
		return sc, fmt.Errorf("unknown engine %q (ooo, inorder)", engine)
	}

	if sc.L2.Organization, err = resizecache.ParseOrganization(l2org); err != nil {
		return sc, err
	}
	sc.L2.Assoc = l2assoc
	switch {
	case l2static && l2dynamic:
		return sc, fmt.Errorf("-l2static and -l2dynamic are mutually exclusive")
	case l2dynamic:
		sc.L2.Strategy = resizecache.Dynamic
	default:
		sc.L2.Strategy = resizecache.Static
	}
	if (l2static || l2dynamic) && sc.L2.Organization == resizecache.NonResizable {
		return sc, fmt.Errorf("-l2static/-l2dynamic need -l2org (ways, sets, hybrid)")
	}
	// -org none with a resizable L2 normalizes to an L2-only experiment
	// inside the facade; no CLI-side folding needed.
	return sc, nil
}

// main defers to realMain so the profiling stop (and every other defer)
// runs before the process exits — os.Exit would skip them.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		bench    = flag.String("bench", "gcc", "benchmark name")
		instr    = flag.Uint64("instr", 1_500_000, "instructions per simulation")
		engine   = flag.String("engine", "ooo", "engine: ooo or inorder")
		assoc    = flag.Int("assoc", 2, "L1 set-associativity")
		org      = flag.String("org", "sets", "L1 organization: none, ways, sets, hybrid")
		strategy = flag.String("strategy", "static", "L1 resizing strategy: static or dynamic")
		sides    = flag.String("sides", "both", "which caches resize: both, d, i, l2")
		hier     = flag.String("hierarchy", "base", "shared hierarchy: base, no-l2, small-l2, big-l2, l2+l3")

		l2org     = flag.String("l2org", "none", "L2 organization: none, ways, sets, hybrid")
		l2static  = flag.Bool("l2static", false, "resize the L2 with the static (profiled) strategy")
		l2dynamic = flag.Bool("l2dynamic", false, "resize the L2 with the dynamic miss-ratio controller")
		l2assoc   = flag.Int("l2assoc", 0, "L2 set-associativity (0 = the hierarchy default, 4)")

		stats  = flag.Bool("stats", false, "print runner hit/miss statistics to stderr")
		server = flag.String("server", "", "share the memo store of a simd daemon at this address (unix:<path> or host:port; a comma-separated list fails over); simulations still run locally")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	sc, err := scenarioFromFlags(*bench, *org, *strategy, *sides, *engine, *hier, *l2org,
		*l2static, *l2dynamic, *assoc, *l2assoc, *instr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "respcache:", err)
		return 1
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "respcache:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "respcache:", err)
		}
	}()

	var sopts resizecache.SessionOptions
	if *server != "" {
		// Simulations run in this process, but results and profiling
		// artifacts round-trip to the daemon's store — so detached
		// respcache invocations (and every figures -server client) share
		// one memo fabric.
		netStore, err := runner.OpenNetStore(*server)
		if err != nil {
			fmt.Fprintln(os.Stderr, "respcache:", err)
			return 1
		}
		defer netStore.Close()
		sopts.Store = netStore
	}
	session, err := resizecache.NewSessionWith(sopts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "respcache:", err)
		return 1
	}
	out, err := session.SimulateContext(context.Background(), sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "respcache:", err)
		return 1
	}
	if *server != "" {
		// Ask the daemon to persist what this run contributed.
		if err := session.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "respcache:", err)
		}
	}

	eng := "out-of-order"
	if sc.InOrder {
		eng = "in-order"
	}
	fmt.Printf("benchmark      %s (%s engine, %d instructions, %v hierarchy)\n",
		sc.Benchmark, eng, sc.Instructions, sc.Hierarchy)
	report := func(name, chosen string, sizeRed float64) {
		if chosen == "" {
			return
		}
		fmt.Printf("%-14s %-24s avg size reduced %.1f%%\n", name, chosen, sizeRed)
	}
	report("L1d", out.DChosen, out.DCacheSizeReductionPct)
	report("L1i", out.IChosen, out.ICacheSizeReductionPct)
	report("L2", out.L2Chosen, out.L2SizeReductionPct)
	fmt.Printf("EDP            reduced %.1f%% (slowdown %.1f%%)\n",
		out.EDPReductionPct, out.SlowdownPct)
	fmt.Printf("energy         core %.1f%%, l1i %.1f%%, l1d %.1f%%, l2 %.1f%%, mem %.1f%%\n",
		out.Energy.CorePct, out.Energy.L1IPct, out.Energy.L1DPct,
		out.Energy.L2Pct, out.Energy.MemPct)
	if *stats {
		fmt.Fprintln(os.Stderr, "respcache:", out.Stats)
	}
	return 0
}
