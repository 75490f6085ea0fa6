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
	const want = "c86a6c0237bd4c121af0353a15e719759ea99f65c926e78e5bf0ee4033cf3183"
	if got := planArtifactKey("golden", 1, plan).String(); got != want {
		t.Errorf("planArtifactKey = %q, pinned %q", got, want)
	}
}
