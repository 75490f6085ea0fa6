// Sweep: the declarative batch API end to end. Declare a
// benchmarks × organizations × strategies grid, expand it to a
// deduplicated plan, run the whole plan as one batch through a Session,
// and stream results as they complete — with a progress callback and an
// ordered Collect at the end. The session's stats show the batch
// scheduling at work: every cold profiling sweep was enqueued in one
// pass (EnqueueBatches=1), coalesced into gangs of same-front configs,
// and the per-sweep gathers joined that work.
//
// The instruction budget is kept small so this finishes in seconds; it
// doubles as the CI smoke test for the batch API.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"resizecache"
)

func main() {
	grid := resizecache.Grid{
		Benchmarks:    []string{"gcc", "m88ksim", "compress", "vpr"},
		Organizations: []resizecache.Organization{resizecache.SelectiveWays, resizecache.SelectiveSets},
		Strategies:    []resizecache.Strategy{resizecache.Static},
		Sides:         []resizecache.Sides{resizecache.DOnly},
		Instructions:  150_000,
	}
	plan, err := grid.Expand()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d scenarios (benchmarks × organizations)\n\n", plan.Len())

	session := resizecache.NewSession()
	stream := session.Run(context.Background(), plan,
		resizecache.OnResult(func(r resizecache.Result, completed, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d scenarios complete", completed, total)
			if completed == total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	results, err := resizecache.Collect(stream)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("  %-10s %-15s %-18s %10s %10s\n",
		"app", "organization", "chose", "EDP red", "size red")
	for _, r := range results {
		fmt.Printf("  %-10s %-15v %-18s %9.1f%% %9.1f%%\n",
			r.Scenario.Benchmark, r.Scenario.Organization, r.Outcome.DChosen,
			r.Outcome.EDPReductionPct, r.Outcome.DCacheSizeReductionPct)
	}

	st := session.Stats()
	fmt.Printf("\nbatch scheduling: %d sims enqueued in %d pass(es), %d ganged in %d gangs, %d dedup joins\n",
		st.Enqueued, st.EnqueueBatches, st.Ganged, st.GangBatches, st.InFlightDedups)
}
