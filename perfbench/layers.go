package main

import (
	"sort"

	"resizecache/internal/runner"
)

// traced is everything a traced pass leaves behind for the per-layer
// metrics.
type traced struct {
	spans    []span
	stats    runner.Stats // runner counters over the traced pass
	h        *hooks
	untraced pass // the untraced pass of the same run
	pass     pass // the traced pass
	facts    map[string]float64
	probes   map[string]float64
}

// layerMetrics derives every per-layer metric; a metric the workload
// never exercised reads 0.
func layerMetrics(t traced) map[string]float64 {
	m := map[string]float64{}
	for k, v := range t.probes {
		m[k] = v
	}
	for k, v := range t.facts {
		m[k] = v
	}

	byName := map[string][]span{}
	for _, s := range t.spans {
		byName[s.name] = append(byName[s.name], s)
	}
	kind := func(name, k string) []span {
		var out []span
		for _, s := range byName[name] {
			if s.kind == k {
				out = append(out, s)
			}
		}
		return out
	}
	const us, ms = 1e3, 1e6

	requests := byName["resizecache.request"]
	m["resizecache.simulate_us_p50"] = p50(kind("resizecache.request", "simulate"), us)
	m["resizecache.plan_us_p50"] = p50(kind("resizecache.request", "plan"), us)
	m["resizecache.self_us_p50"] = selfP50(requests, t.spans) / us
	m["figures.render_ms_p50"] = p50(byName["figures.request"], ms)

	st := t.stats
	m["experiment.sweeps_computed"] = float64(st.ArtifactComputes)
	m["runner.sims"] = float64(st.Runs)
	m["runner.solo_sims"] = float64(st.Runs - st.Ganged)
	m["runner.gang_size_mean"] = ratio(float64(st.Ganged), float64(st.GangBatches))
	m["runner.hit_frac"] = ratio(float64(st.Hits()), float64(st.Submitted))
	artHits := float64(st.ArtifactHits + st.ArtifactStoreHits)
	m["runner.artifact_hit_frac"] = ratio(artHits, artHits+float64(st.ArtifactComputes))
	m["runner.warmup_hits"] = float64(st.WarmupHits)
	m["runner.warmup_saves"] = float64(st.WarmupSaves)

	lookups := byName["runner.lookup"]
	m["runner.store_lookups"] = float64(len(lookups))
	m["runner.store_lookup_us_p50"] = p50(lookups, us)
	m["runner.store_hit_frac"] = ratio(float64(countHits(lookups)), float64(len(lookups)))
	m["runner.store_records"] = float64(len(byName["runner.record"]))
	m["runner.store_record_us_p50"] = p50(byName["runner.record"], us)
	artLookups := byName["runner.lookup_artifact"]
	m["runner.artifact_lookups"] = float64(len(artLookups))
	m["runner.artifact_lookup_us_p50"] = p50(artLookups, us)
	var read int64
	for _, s := range artLookups {
		read += s.n
	}
	m["runner.artifact_read_mb"] = float64(read) / (1 << 20)
	m["runner.artifact_record_us_p50"] = p50(byName["runner.record_artifact"], us)
	m["runner.checkpoint_mb"] = float64(t.h.census.checkpointBytes.Load()) / (1 << 20)
	var store []span
	for _, s := range t.spans {
		if s.lane == laneStore && s.kind != "disk_open" {
			store = append(store, s)
		}
	}
	m["runner.store_busy_frac"] = ratio(float64(covered(store, 0, 1<<62)), float64(t.pass.wall.Nanoseconds()))
	m["runner.net_lookup_us_p50"] = p50(byName["runner.net_lookup"], us)
	m["runner.net_record_us_p50"] = p50(byName["runner.net_record"], us)

	c := &t.h.census
	m["sim.detailed_frac"] = ratio(float64(c.detailed), float64(c.covered))
	m["sim.instructions"] = float64(c.instr)
	m["cpu.branches_per_instr"] = ratio(float64(c.branches), float64(c.instr))
	m["cache.accesses_per_instr"] = ratio(float64(c.accesses), float64(c.instr))
	m["core.resizes"] = float64(c.resizes)
	m["core.flushed_blocks"] = float64(c.flushed)
	m["bpred.mispredict_frac"] = ratio(float64(c.mispredicts), float64(c.branches))

	daemonPlans := kind("simd.request", "plan")
	m["simd.plan_ms_p50"] = p50(daemonPlans, ms)
	m["wire.ping_rtt_us_p50"] = p50(byName["wire.ping"], us)
	m["wire.bytes_per_scenario"] = ratio(float64(t.h.wire.bytes.Load()), float64(t.h.wire.results.Load()))
	m["wire.frames"] = float64(t.h.wire.frames.Load())
	if len(daemonPlans) > 0 {
		m["client.overhead_ms_p50"] = m["resizecache.plan_us_p50"]/1e3 - m["simd.plan_ms_p50"]
	}

	u, tr := endToEnd(0, t.untraced), endToEnd(0, t.pass)
	if tr["requests_per_s"] > 0 {
		m["bench.trace_overhead_pct"] = 100 * (u["requests_per_s"]/tr["requests_per_s"] - 1)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p50 is the median span duration in units of unit nanoseconds.
func p50(spans []span, unit float64) float64 {
	d := make([]float64, len(spans))
	for i, s := range spans {
		d[i] = float64(s.dur) / unit
	}
	return median(d)
}

func countHits(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.hit {
			n++
		}
	}
	return n
}

// selfP50 is the median request self time in ns: a request's duration
// minus the part of it its own store spans cover.
func selfP50(requests, all []span) float64 {
	children := map[uint64][]span{}
	for _, s := range all {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]float64, len(requests))
	for i, r := range requests {
		self[i] = float64(r.dur - covered(children[r.id], r.start, r.start+r.dur))
	}
	return median(self)
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi).
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.start+s.dur, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
