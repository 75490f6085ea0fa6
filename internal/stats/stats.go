// Package stats provides small statistical helpers used throughout the
// simulator: event counters, running means, and energy-delay arithmetic.
//
// The simulator is single-threaded per run, so none of these types are
// synchronized; experiment-level parallelism runs independent simulations
// in separate goroutines with separate stat instances.
package stats

import (
	"fmt"
	"math"
	"sort"
)

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

// Mean tracks a running arithmetic mean without storing samples
// (Welford's algorithm, which is numerically stable for long runs).
type Mean struct {
	count uint64
	mean  float64
	m2    float64
}

// Observe adds one sample.
func (m *Mean) Observe(x float64) {
	m.count++
	d := x - m.mean
	m.mean += d / float64(m.count)
	m.m2 += d * (x - m.mean)
}

// ObserveWeighted adds a sample with an integral weight, equivalent to
// observing x weight times.
func (m *Mean) ObserveWeighted(x float64, weight uint64) {
	if weight == 0 {
		return
	}
	// Chan et al. parallel-merge form for a constant block.
	wc := float64(weight)
	tc := float64(m.count) + wc
	d := x - m.mean
	m.mean += d * wc / tc
	m.m2 += d * d * float64(m.count) * wc / tc
	m.count += weight
}

// Count returns the number of samples observed.
func (m *Mean) Count() uint64 { return m.count }

// Value returns the mean of the observed samples (0 with no samples).
func (m *Mean) Value() float64 { return m.mean }

// Variance returns the population variance (0 with fewer than 2 samples).
func (m *Mean) Variance() float64 {
	if m.count < 2 {
		return 0
	}
	return m.m2 / float64(m.count)
}

// StdDev returns the population standard deviation.
func (m *Mean) StdDev() float64 { return math.Sqrt(m.Variance()) }

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

// Percentile returns the p-th percentile (0..100) of the sample slice
// using linear interpolation. The input is not modified.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// GeoMean returns the geometric mean of positive samples; zero or
// negative entries make the result 0.
func GeoMean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range samples {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(samples)))
}

// FormatPct renders a fraction as a fixed-width percentage string, e.g.
// 0.123 -> "12.3%". Used by the experiment table printers.
func FormatPct(frac float64) string {
	return fmt.Sprintf("%5.1f%%", 100*frac)
}
