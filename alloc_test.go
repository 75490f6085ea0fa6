package resizecache_test

import (
	"context"
	"runtime"
	"testing"

	"resizecache"
	"resizecache/internal/benchsuite"
	"resizecache/internal/runner"
)

// coldPlanBudgetKB bounds the heap a cold plan allocates per simulated
// config: 1.25× the 7.3 KB TestColdPlanAllocBudget read at most over
// five runs (6.8–7.3 KB; 2 vCPUs, linux/amd64, go1.24). Before the
// batch path carried configs and results by reference, the same test
// read 9.5–9.7 KB.
const coldPlanBudgetKB = 9.1

// TestColdPlanAllocBudget runs the first app's share of the benchmark
// grid (benchsuite.PlanGrid: 36 scenarios) cold on a fresh session over
// a MemStore, as perfbench's sweep-cold workload runs a request, and
// bounds the growth of runtime.MemStats.TotalAlloc per simulated
// config. A layer that starts copying each candidate's config or result
// into a fresh slice again shows up here.
//
// It is skipped under -short, as CI's race job runs: the race detector
// drops sync.Pool items at random, so the pooled frame and BTB arrays
// reallocate and the count grows by half.
func TestColdPlanAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget; see the doc comment")
	}
	g := benchsuite.PlanGrid()
	g.Benchmarks = g.Benchmarks[:1]
	plan, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	s, err := resizecache.NewSessionWith(resizecache.SessionOptions{Workers: 2, Store: runner.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := resizecache.Collect(s.Run(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runs := s.Stats().Runs
	if runs == 0 {
		t.Fatal("the cold plan simulated nothing")
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(runs)
	t.Logf("%.1f KB allocated per simulated config over %d configs", perRun, runs)
	if perRun > coldPlanBudgetKB {
		t.Errorf("%.1f KB allocated per simulated config, over the %.1f KB budget", perRun, coldPlanBudgetKB)
	}
}
