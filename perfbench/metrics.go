package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef declares one reported metric. The tables below are the
// benchmark's single source of metric names; BENCHMARK.json repeats them
// and TestBenchmarkJSONMatchesCode keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the simulator sees. Every workload
// reports every one of them, so each is defined for a generic request:
// a whole cold grid plan on the sweeps, one facade call on replay-local,
// and one client-A plan on replay-remote.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"requests_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_request", "ms", "lower"},
	{"alloc_kb_per_request", "KB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are printed by a traced run (-trace 1). A metric a
// workload never exercises reads 0 there (no daemon on the local
// workloads, no simulations on the replays).
var perLayerMetrics = []metricDef{
	{"resizecache.simulate_us_p50", "us", "lower"},
	{"resizecache.plan_us_p50", "us", "lower"},
	{"resizecache.self_us_p50", "us", "lower"},
	{"figures.render_ms_p50", "ms", "lower"},
	{"experiment.sweeps_computed", "count", "lower"},
	{"experiment.artifact_key_us", "us", "lower"},
	{"runner.sims", "count", "lower"},
	{"runner.solo_sims", "count", "lower"},
	{"runner.gang_size_mean", "count", "higher"},
	{"runner.hit_frac", "frac", "higher"},
	{"runner.artifact_hit_frac", "frac", "higher"},
	{"runner.warmup_hits", "count", "higher"},
	{"runner.warmup_saves", "count", "lower"},
	{"runner.store_lookups", "count", "lower"},
	{"runner.store_lookup_us_p50", "us", "lower"},
	{"runner.store_hit_frac", "frac", "higher"},
	{"runner.store_records", "count", "lower"},
	{"runner.store_record_us_p50", "us", "lower"},
	{"runner.artifact_lookups", "count", "lower"},
	{"runner.artifact_lookup_us_p50", "us", "lower"},
	{"runner.artifact_read_mb", "MB", "lower"},
	{"runner.artifact_record_us_p50", "us", "lower"},
	{"runner.checkpoint_mb", "MB", "lower"},
	{"runner.store_busy_frac", "frac", "lower"},
	{"runner.disk_open_s", "s", "lower"},
	{"runner.net_lookup_us_p50", "us", "lower"},
	{"runner.net_record_us_p50", "us", "lower"},
	{"runner.remote_errors", "count", "lower"},
	{"runner.breaker_trips", "count", "lower"},
	{"sim.solo_ms", "ms", "lower"},
	{"sim.gang8_ms", "ms", "lower"},
	{"sim.gang_member_ns_per_instr", "ns/instr", "lower"},
	{"sim.gang1_over_solo", "ratio", "lower"},
	{"sim.allocs_per_run", "count", "lower"},
	{"sim.alloc_kb_per_sim", "KB", "lower"},
	{"sim.sampled_cold_ms", "ms", "lower"},
	{"sim.sampled_warm_ms", "ms", "lower"},
	{"sim.detailed_frac", "frac", "lower"},
	{"sim.instructions", "count", "higher"},
	{"sim.key_ns", "ns", "lower"},
	{"sim.budget_residual_ns_per_instr", "ns/instr", "lower"},
	{"sim.sampled_edp_err_pp", "pp", "lower"},
	{"cpu.ooo_ns_per_instr", "ns/instr", "lower"},
	{"cpu.inorder_ns_per_instr", "ns/instr", "lower"},
	{"cpu.fastforward_ns_per_instr", "ns/instr", "lower"},
	{"cpu.branches_per_instr", "ratio", "lower"},
	{"cache.access_hit_ns", "ns", "lower"},
	{"cache.access_miss_ns", "ns", "lower"},
	{"cache.warm_ns", "ns", "lower"},
	{"cache.accesses_per_instr", "ratio", "lower"},
	{"core.resizes", "count", "lower"},
	{"core.flushed_blocks", "count", "lower"},
	{"bpred.branch_ns", "ns", "lower"},
	{"bpred.mispredict_frac", "frac", "lower"},
	{"workload.next_ns", "ns", "lower"},
	{"workload.skip_ns_per_instr", "ns/instr", "lower"},
	{"simd.plan_ms_p50", "ms", "lower"},
	{"wire.ping_rtt_us_p50", "us", "lower"},
	{"wire.bytes_per_scenario", "bytes", "lower"},
	{"wire.frames", "count", "lower"},
	{"client.overhead_ms_p50", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// pass is the record of one measured phase.
type pass struct {
	lat       []float64     // per-request latency, ms
	busy      time.Duration // summed request latency
	wall      time.Duration
	cpu       time.Duration // process user+sys
	alloc     uint64        // bytes allocated (TotalAlloc delta)
	attempted int
	failed    int
	instr     uint64    // simulated (sweeps: covered) instructions
	edpErr    []float64 // sweep-sampled: per-plan mean |EDP error|, pp
}

// add records one completed request.
func (p *pass) add(d time.Duration) {
	p.lat = append(p.lat, float64(d.Nanoseconds())/1e6)
	p.busy += d
}

// meter snapshots the process counters a pass is charged against.
type meter struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter {
	return meter{start: time.Now(), cpu: cpuTime(), alloc: totalAlloc()}
}

// stop charges the wall, CPU and allocation since start to p.
func (m meter) stop(p *pass) {
	p.wall = time.Since(m.start)
	p.cpu = cpuTime() - m.cpu
	p.alloc = totalAlloc() - m.alloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// endToEnd derives the end-to-end metrics from a measured pass.
// requests_per_s divides by the time spent inside requests, so the
// harness's own output checks between requests do not count against
// the system.
func endToEnd(setupS float64, p pass) map[string]float64 {
	n := float64(len(p.lat))
	s := sorted(p.lat)
	m := map[string]float64{
		"setup_s":        setupS,
		"latency_p50_ms": quantile(s, 0.5),
		"latency_p99_ms": tail(s),
		"peak_rss_mb":    peakRSSMB(),
	}
	if n > 0 {
		m["requests_per_s"] = n / p.busy.Seconds()
		m["cpu_ms_per_request"] = float64(p.cpu.Nanoseconds()) / 1e6 / n
		m["alloc_kb_per_request"] = float64(p.alloc) / 1024 / n
	}
	return m
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tail is the latency reported as p99: the 99th percentile, or, below
// 1,000 samples, the highest percentile that still has ten samples
// beyond it. Below 11 samples no percentile has a tail that size — the
// sweeps complete a few whole plans per run — and the median stands in.
func tail(s []float64) float64 {
	n := len(s)
	if n < 11 {
		return quantile(s, 0.5)
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	return s[min(i, n-11)]
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }
