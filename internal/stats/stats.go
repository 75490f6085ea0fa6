// Package stats provides small statistical helpers used throughout the
// simulator: event counters and energy-delay arithmetic.
//
// The simulator is single-threaded per run, so none of these types are
// synchronized; experiment-level parallelism runs independent simulations
// in separate goroutines with separate stat instances.
package stats

import "math"

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Ratio returns c/other as a float64, or 0 when other is zero.
func (c *Counter) Ratio(other *Counter) float64 {
	if other.n == 0 {
		return 0
	}
	return float64(c.n) / float64(other.n)
}

// EDP is an energy-delay product measurement for one simulation.
type EDP struct {
	EnergyJ float64 // total energy in joules
	Cycles  uint64  // execution time in cycles
}

// Product returns energy × delay (joule-cycles). Frequency is constant
// across compared configurations, so cycles stand in for seconds.
func (e EDP) Product() float64 { return e.EnergyJ * float64(e.Cycles) }

// RelativeTo returns this EDP normalized to a baseline (1.0 = equal,
// lower = better). Returns +Inf for a zero baseline product.
func (e EDP) RelativeTo(base EDP) float64 {
	bp := base.Product()
	if bp == 0 {
		return math.Inf(1)
	}
	return e.Product() / bp
}

// ReductionPct returns the percentage reduction of this EDP versus the
// baseline: 100 × (1 − this/base). Positive means improvement.
func (e EDP) ReductionPct(base EDP) float64 {
	return 100 * (1 - e.RelativeTo(base))
}

// Slowdown returns the fractional increase in cycles relative to base
// (0.03 = 3 % performance degradation).
func (e EDP) Slowdown(base EDP) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(e.Cycles)/float64(base.Cycles) - 1
}
