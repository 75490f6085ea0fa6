package stats

import (
	"math"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c, d Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("Value = %d, want 10", c.Value())
	}
	d.Add(40)
	if got := c.Ratio(&d); got != 0.25 {
		t.Fatalf("Ratio = %v, want 0.25", got)
	}
}

func TestCounterRatioZeroDenominator(t *testing.T) {
	var c, d Counter
	c.Add(5)
	if got := c.Ratio(&d); got != 0 {
		t.Fatalf("Ratio with zero denominator = %v, want 0", got)
	}
}

func TestEDPProductAndReduction(t *testing.T) {
	base := EDP{EnergyJ: 2, Cycles: 1000}
	improved := EDP{EnergyJ: 1.5, Cycles: 1100}
	rel := improved.RelativeTo(base)
	want := (1.5 * 1100) / (2 * 1000)
	if math.Abs(rel-want) > 1e-12 {
		t.Fatalf("RelativeTo = %v, want %v", rel, want)
	}
	if math.Abs(improved.ReductionPct(base)-(100*(1-want))) > 1e-9 {
		t.Fatalf("ReductionPct mismatch")
	}
	if math.Abs(improved.Slowdown(base)-0.1) > 1e-12 {
		t.Fatalf("Slowdown = %v, want 0.1", improved.Slowdown(base))
	}
}

func TestEDPZeroBaseline(t *testing.T) {
	e := EDP{EnergyJ: 1, Cycles: 1}
	if !math.IsInf(e.RelativeTo(EDP{}), 1) {
		t.Fatal("expected +Inf for zero baseline")
	}
	if e.Slowdown(EDP{}) != 0 {
		t.Fatal("expected 0 slowdown for zero-cycle baseline")
	}
}
