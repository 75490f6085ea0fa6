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
	const want = "6dfe687f171bf1e2dbba1165ffa118e611fa854bb691a0803a0f216c121fda3f"
	if got := planArtifactKey("golden", 1, plan).String(); got != want {
		t.Errorf("planArtifactKey = %q, pinned %q", got, want)
	}
}
