package resizecache

import "testing"

// TestPlanArtifactKeyGolden pins the literal fingerprint of a small
// plan's derived artifacts (the figure-level cache tier). It moves only
// when a scenario axis, a sweep's artifact key or the plan encoding
// changes; stored figure payloads are keyed by it.
func TestPlanArtifactKeyGolden(t *testing.T) {
	plan, err := PlanOf(
		Scenario{Benchmark: "m88ksim", Organization: SelectiveSets, Sides: DOnly,
			Instructions: 100_000},
		Scenario{Benchmark: "vpr", Organization: Hybrid, Strategy: Dynamic, Sides: BothSides,
			L2: L2Spec{Organization: SelectiveWays}, InOrder: true, Instructions: 250_000,
			Sampling: DefaultSampling()},
	)
	if err != nil {
		t.Fatal(err)
	}
	const want = "c45c7497d85a4d255d7ac7b8aa1edb75c3c7ef204b05ee6f85193d7197c83693"
	if got := planArtifactKey("golden", 1, plan).String(); got != want {
		t.Errorf("planArtifactKey = %q, pinned %q", got, want)
	}
}
