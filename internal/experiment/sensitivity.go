package experiment

import (
	"context"
	"fmt"
	"strings"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// Sensitivity studies — the "exploiting choice" follow-ups the paper
// leaves implicit: how the headline results move with the subarray
// granularity (which sets the resizing floor and step), the dynamic
// controller's interval, and the L2 size backing the resized L1s.
//
// Each driver runs on the runner it is given and batch-schedules its
// whole parameter grid: every cold sweep (or raw config pair) is
// enqueued on that runner in one pass before any gathering starts, so
// the worker pool interleaves across parameter points instead of
// draining one point at a time.

// SensitivityRow is one parameter point of a sensitivity sweep.
type SensitivityRow struct {
	Label           string
	EDPReductionPct float64 // suite mean, best static selective-sets d-cache
	SizeRedPct      float64
}

// SubarraySensitivity sweeps the subarray size (512B, 1K, 2K, 4K) for a
// 32K 2-way selective-sets d-cache. Smaller subarrays offer smaller
// minimum sizes (512B subarray -> 1K minimum at 2-way), larger ones
// coarser schedules.
func SubarraySensitivity(ctx context.Context, r *runner.Runner, opts Options) ([]SensitivityRow, error) {
	apps := opts.apps()
	var points []sensPoint
	for _, sub := range []int{512, 1 << 10, 2 << 10, 4 << 10} {
		geom := geometry.Geometry{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 32, SubarrayBytes: sub}
		if err := geom.Validate(); err != nil {
			return nil, err
		}
		sched, err := core.BuildSchedule(geom, core.SelectiveSets)
		if err != nil {
			return nil, err
		}
		p := sensPoint{label: fmt.Sprintf("%s subarray (%d points, min %s)",
			geometry.FormatSize(sub), len(sched.Points), geometry.FormatSize(sched.MinBytes()))}
		for _, app := range apps {
			base := baseConfig(app, opts.Engine, opts.Instructions, 2, 2)
			base.DCache.Geom = geom
			p.specs = append(p.specs, SweepSpec{App: app, Side: DSide,
				Org: core.SelectiveSets, Base: base})
		}
		points = append(points, p)
	}
	return sweepRows(ctx, r, points)
}

// sensPoint is one parameter point of a sweep-based sensitivity study:
// its label and the sweeps (one per app) whose winners it averages.
type sensPoint struct {
	label string
	specs []SweepSpec
}

// sweepRows runs a sensitivity grid: every sweep resolved once, one
// batched enqueue pass over the whole grid, then per point the mean
// winner of its sweeps. On an early error return it cancels and drains
// the stragglers, so a caller flushing a store right after cannot race
// their result writes.
func sweepRows(ctx context.Context, r *runner.Runner, points []sensPoint) ([]SensitivityRow, error) {
	var all []SweepSpec
	for _, p := range points {
		all = append(all, p.specs...)
	}
	sweeps, err := resolveAll(all)
	if err != nil {
		return nil, err
	}
	enqCtx, stopEnqueue := context.WithCancel(ctx)
	_, wait := EnqueueSweeps(enqCtx, sweeps, r)
	defer func() { stopEnqueue(); wait() }()
	var out []SensitivityRow
	for _, p := range points {
		var edp, size float64
		for range p.specs {
			best, err := sweeps[0].Best(ctx, r)
			if err != nil {
				return nil, err
			}
			sweeps = sweeps[1:]
			edp += best.EDPReductionPct()
			size += best.SizeReductionPct()
		}
		n := float64(len(p.specs))
		out = append(out, SensitivityRow{Label: p.label,
			EDPReductionPct: edp / n, SizeRedPct: size / n})
	}
	return out, nil
}

// IntervalSensitivity sweeps the dynamic controller's interval for a
// fixed miss-bound fraction and size bound, on the in-order engine where
// adaptation lag is most exposed.
func IntervalSensitivity(ctx context.Context, r *runner.Runner, opts Options) ([]SensitivityRow, error) {
	opts.Engine = sim.InOrder
	apps := opts.apps()
	intervals := []uint64{2048, 8192, 32768, 131072}
	// Every (interval, app) point is a baseline and candidate pair with
	// no winner selection to cache: run the whole grid as one batch.
	batch := make([]sim.Config, 0, 2*len(intervals)*len(apps))
	for _, interval := range intervals {
		for _, app := range apps {
			base := baseConfig(app, opts.Engine, opts.Instructions, 2, 2)
			cfg := base
			cfg.DCache = sim.CacheSpec{Geom: l1Geom(2), Org: core.SelectiveSets,
				Policy: sim.PolicySpec{Kind: sim.PolicyDynamic, Interval: interval,
					MissBound: uint64(float64(interval) * 0.01), SizeBoundBytes: 4 << 10,
					UpsizeHoldIntervals: 3}}
			batch = append(batch, base, cfg)
		}
	}
	res, err := r.RunAll(ctx, runner.Jobs(batch))
	if err != nil {
		return nil, err
	}
	var out []SensitivityRow
	for _, interval := range intervals {
		var edp, size float64
		for range apps {
			base, cfg := res[0], res[1]
			res = res[2:]
			edp += cfg.EDP.ReductionPct(base.EDP)
			size += cfg.DCache.SizeReductionPct()
		}
		n := float64(len(apps))
		out = append(out, SensitivityRow{
			Label:           fmt.Sprintf("interval %d accesses", interval),
			EDPReductionPct: edp / n,
			SizeRedPct:      size / n,
		})
	}
	return out, nil
}

// L2Sensitivity sweeps the L2 capacity to test the paper's claim that L1
// resizing has minimal impact on the L2 footprint: the resizing gain
// should be stable across L2 sizes.
func L2Sensitivity(ctx context.Context, r *runner.Runner, opts Options) ([]SensitivityRow, error) {
	apps := opts.apps()
	var points []sensPoint
	for _, l2kb := range []int{256, 512, 1024} {
		p := sensPoint{label: fmt.Sprintf("%dK L2", l2kb)}
		for _, app := range apps {
			base := baseConfig(app, opts.Engine, opts.Instructions, 2, 2)
			base.Levels = []sim.LevelSpec{{CacheSpec: sim.CacheSpec{
				Geom: geometry.Geometry{SizeBytes: l2kb << 10, Assoc: 4,
					BlockBytes: 64, SubarrayBytes: 4 << 10},
				Org: core.NonResizable,
			}}}
			p.specs = append(p.specs, SweepSpec{App: app, Side: DSide,
				Org: core.SelectiveSets, Base: base})
		}
		points = append(points, p)
	}
	return sweepRows(ctx, r, points)
}

// RenderSensitivity formats a sweep as a text table.
func RenderSensitivity(title string, rows []SensitivityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n  %-36s %14s %14s\n", title, "parameter", "EDP red (%)", "size red (%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-36s %14.1f %14.1f\n", r.Label, r.EDPReductionPct, r.SizeRedPct)
	}
	return b.String()
}
