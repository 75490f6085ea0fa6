package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestMeanMatchesDirectComputation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var m Mean
	var sum float64
	const n = 1000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 7
		sum += xs[i]
		m.Observe(xs[i])
	}
	want := sum / n
	if math.Abs(m.Value()-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", m.Value(), want)
	}
	var sq float64
	for _, x := range xs {
		sq += (x - want) * (x - want)
	}
	if math.Abs(m.Variance()-sq/n) > 1e-6 {
		t.Fatalf("variance = %v, want %v", m.Variance(), sq/n)
	}
}

func TestMeanWeightedEquivalence(t *testing.T) {
	var a, b Mean
	vals := []struct {
		x float64
		w uint64
	}{{2, 3}, {5, 1}, {-1, 4}, {7.5, 2}}
	for _, v := range vals {
		a.ObserveWeighted(v.x, v.w)
		for i := uint64(0); i < v.w; i++ {
			b.Observe(v.x)
		}
	}
	if a.Count() != b.Count() {
		t.Fatalf("count %d != %d", a.Count(), b.Count())
	}
	if math.Abs(a.Value()-b.Value()) > 1e-9 {
		t.Fatalf("weighted mean %v != repeated mean %v", a.Value(), b.Value())
	}
	if math.Abs(a.Variance()-b.Variance()) > 1e-9 {
		t.Fatalf("weighted var %v != repeated var %v", a.Variance(), b.Variance())
	}
}

func TestMeanWeightedZeroWeightIsNoop(t *testing.T) {
	var m Mean
	m.Observe(3)
	m.ObserveWeighted(100, 0)
	if m.Count() != 1 || m.Value() != 3 {
		t.Fatalf("zero weight changed state: count=%d mean=%v", m.Count(), m.Value())
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

// Property: a Mean's value always lies within [min, max] of its samples.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var m Mean
		lo, hi := math.Inf(1), math.Inf(-1)
		ok := false
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			ok = true
			m.Observe(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if !ok {
			return true
		}
		return m.Value() >= lo-1e-6 && m.Value() <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
