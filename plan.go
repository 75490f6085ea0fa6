package resizecache

// Declarative batch experiments. The paper's evaluation — and most real
// use of this library — is a design-space sweep: a grid over
// {benchmark × organization × strategy × associativity × sides ×
// engine}. Grid declares the axes, Expand turns them into a
// deterministic, deduplicated Plan of Scenarios, and Session.Run
// executes the whole plan as one batch: every cold profiling sweep is
// enqueued on the shared worker pool up front (one batched runner
// pass), scenarios gather by joining that in-flight work, and results
// stream back as they complete.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"resizecache/internal/experiment"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// Grid declares a design-space sweep as axes over Scenario fields.
// Empty axes default to: all benchmarks, the three resizable
// organizations, {Static}, associativity {2}, {BothSides},
// {OutOfOrderEngine}, {BaseL2}, a fixed L2 ({NonResizable}), and
// {Static} L2 strategies. Instructions is a scalar applied to every
// scenario (0 = the 1.5M default).
type Grid struct {
	Benchmarks    []string
	Organizations []Organization
	Strategies    []Strategy
	Assocs        []int
	Sides         []Sides
	Engines       []Engine
	// Hierarchies sweeps the shared-cache stack below the L1s.
	Hierarchies []Hierarchy
	// L2Orgs / L2Strategies sweep resizing of the shared L2; cells with
	// a NonResizable L2 org keep the L2 fixed, and the L2Strategies axis
	// is inert for them (such cells deduplicate).
	L2Orgs       []Organization
	L2Strategies []Strategy
	Instructions uint64
	// Sampling, like Instructions, is a scalar applied to every scenario:
	// an enabled spec runs the whole sweep interval-sampled (estimates
	// with error bars, several times faster), which is how large
	// cross-products stay affordable. The zero value keeps full detail.
	Sampling SamplingSpec
}

// Expand enumerates the grid's cross product into a Plan. The order is
// deterministic — nested loops with Benchmarks outermost and the
// hierarchy axes (Hierarchies, then L2Orgs, then L2Strategies)
// innermost, each axis in its given order — and duplicate cells
// (repeated axis values, or distinct spellings that normalize to the
// same scenario) collapse to their first position. Inherent
// cross-product contradictions are skipped rather than aborting the
// grid: cells pairing Sides == L2Only with a NonResizable L2
// organization (nothing resizes), cells pairing a NoL2 hierarchy with
// a resizable L2 organization (no shared level to resize), and cells
// pairing a NonResizable L1 organization with a Sides value that
// resizes an L1 — so {DOnly, L2Only} × {NonResizable, SelectiveWays}
// expands to the three meaningful cells, and a resizable L2 sweeps
// cleanly against a Hierarchies axis that includes NoL2. A grid whose
// every cell is such a contradiction is an error. Every remaining
// scenario is validated; the first invalid cell aborts the expansion
// with its error.
func (g Grid) Expand() (Plan, error) {
	benchmarks := g.Benchmarks
	if len(benchmarks) == 0 {
		benchmarks = Benchmarks()
	}
	orgs := g.Organizations
	if len(orgs) == 0 {
		orgs = []Organization{SelectiveWays, SelectiveSets, Hybrid}
	}
	strategies := g.Strategies
	if len(strategies) == 0 {
		strategies = []Strategy{Static}
	}
	assocs := g.Assocs
	if len(assocs) == 0 {
		assocs = []int{2}
	}
	sides := g.Sides
	if len(sides) == 0 {
		sides = []Sides{BothSides}
	}
	engines := g.Engines
	if len(engines) == 0 {
		engines = []Engine{OutOfOrderEngine}
	}
	hierarchies := g.Hierarchies
	if len(hierarchies) == 0 {
		hierarchies = []Hierarchy{BaseL2}
	}
	l2orgs := g.L2Orgs
	if len(l2orgs) == 0 {
		l2orgs = []Organization{NonResizable}
	}
	l2strategies := g.L2Strategies
	if len(l2strategies) == 0 {
		l2strategies = []Strategy{Static}
	}
	var scenarios []Scenario
	skipped := 0
	for _, b := range benchmarks {
		for _, org := range orgs {
			for _, st := range strategies {
				for _, a := range assocs {
					for _, sd := range sides {
						for _, e := range engines {
							if e != OutOfOrderEngine && e != InOrderEngine {
								return Plan{}, fmt.Errorf("resizecache: unknown engine %d", e)
							}
							for _, h := range hierarchies {
								for _, l2o := range l2orgs {
									for _, l2s := range l2strategies {
										// Inherent cross-product contradictions (see Expand doc).
										l1Resizes := org != NonResizable
										l2Resizes := l2o != NonResizable
										switch {
										case sd == L2Only && !l2Resizes, // nothing resizes the L2
											h == NoL2 && l2Resizes, // no shared level to resize
											// an L1-resizing side with no L1 organization
											// (BothSides with a resizable L2 folds to L2Only)
											!l1Resizes && (sd == DOnly || sd == IOnly),
											!l1Resizes && sd == BothSides && !l2Resizes:
											skipped++
											continue
										}
										scenarios = append(scenarios, Scenario{
											Benchmark:    b,
											Organization: org,
											Strategy:     st,
											Assoc:        a,
											Sides:        sd,
											Hierarchy:    h,
											L2:           L2Spec{Organization: l2o, Strategy: l2s},
											InOrder:      e == InOrderEngine,
											Instructions: g.Instructions,
											Sampling:     g.Sampling,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(scenarios) == 0 && skipped > 0 {
		return Plan{}, fmt.Errorf("resizecache: every grid cell is a contradiction (nothing resizes: check the Organizations/Sides/L2Orgs/Hierarchies axes against each other)")
	}
	return PlanOf(scenarios...)
}

// Plan is a validated, normalized, duplicate-free sequence of Scenarios
// ready for Session.Run. The zero value is an empty plan. Build one
// with Grid.Expand or PlanOf.
type Plan struct {
	scenarios []Scenario
}

// PlanOf builds a Plan from explicit scenarios: each is validated and
// normalized (defaults filled, inert axes zeroed), and duplicates after
// normalization collapse to their first position — a scenario leaving
// Assoc at zero and its Assoc=2 equivalent count as one.
func PlanOf(scenarios ...Scenario) (Plan, error) {
	seen := make(map[Scenario]struct{}, len(scenarios))
	var p Plan
	for i, sc := range scenarios {
		n, err := sc.normalize()
		if err != nil {
			return Plan{}, fmt.Errorf("scenario %d: %w", i, err)
		}
		if _, dup := seen[n]; dup {
			continue
		}
		seen[n] = struct{}{}
		p.scenarios = append(p.scenarios, n)
	}
	return p, nil
}

// Len returns the number of scenarios in the plan.
func (p Plan) Len() int { return len(p.scenarios) }

// Scenarios returns the plan's scenarios in plan order (a copy).
func (p Plan) Scenarios() []Scenario {
	return append([]Scenario(nil), p.scenarios...)
}

// Result is one scenario's outcome within a plan run. Exactly one
// Result per plan scenario is delivered, in completion order; Index is
// the scenario's position in plan order, and Err carries that
// scenario's failure without affecting the rest of the plan.
type Result struct {
	Index    int
	Scenario Scenario
	Outcome  Outcome
	Err      error
}

// RunOption configures Session.Run.
type RunOption func(*runOptions)

type runOptions struct {
	onResult func(Result, int, int)
}

// OnResult registers a progress callback invoked once per completed
// scenario, in completion order, with the result and
// completed-of-total counts. Callbacks are serialized; keep them fast —
// they run on the scenario workers' critical path, before the result is
// delivered on the stream.
func OnResult(fn func(r Result, completed, total int)) RunOption {
	return func(o *runOptions) { o.onResult = fn }
}

// Run executes every scenario of a plan through the session's shared
// runner and streams results back as scenarios complete. The returned
// channel delivers exactly plan.Len() results and is then closed; it is
// buffered to the plan size, so an abandoned stream never blocks the
// workers.
//
// Batch scheduling: before any scenario starts gathering, one batched
// pass enqueues every cold profiling sweep of the whole plan on the
// runner (sweeps whose artifacts are already cached are skipped, so a
// warm plan enqueues nothing). Scenario gathers then join that
// in-flight work instead of each sweep enqueueing and draining its own
// batch in turn, so the pool interleaves simulations across scenarios.
// Work still in the queue when every scenario has finished (e.g. after
// per-scenario errors) is abandoned.
//
// Errors are per scenario: a failing benchmark yields a Result with Err
// set and the rest of the plan continues. Cancelling ctx stops the plan
// between simulations; unfinished scenarios deliver their context
// error. The stream closes only after abandoned stragglers have
// published, so a Session.Flush issued after draining the stream
// persists every result the plan produced.
func (s *Session) Run(ctx context.Context, plan Plan, opts ...RunOption) <-chan Result {
	var ro runOptions
	for _, o := range opts {
		o(&ro)
	}
	out := make(chan Result, plan.Len())
	if plan.Len() == 0 {
		close(out)
		return out
	}

	// Resolve every scenario's sweeps once: the enqueue pass and the
	// scenario's gather share them — each scenario gathers over its own
	// span of all, in which the enqueue pass records the cold sweeps'
	// batches — so each sweep is built and fingerprinted once, and each
	// distinct baseline once per plan.
	sweeps := make([][]experiment.Sweep, plan.Len())
	errs := make([]error, plan.Len())
	var all []experiment.Sweep
	bases := make(baselines)
	enqCtx, stopEnqueue := context.WithCancel(ctx)
	comb := &combiner{r: s.r, ctx: enqCtx}
	for i, sc := range plan.scenarios {
		sweeps[i], errs[i] = sc.sweeps(bases)
		all = append(all, sweeps[i]...)
		if errs[i] == nil && len(sweeps[i]) > 1 {
			comb.pending++
		}
	}
	for i, at := 0, 0; i < len(sweeps); i++ {
		n := len(sweeps[i])
		sweeps[i], at = all[at:at+n:at+n], at+n
	}
	_, waitEnqueued := experiment.EnqueueSweeps(enqCtx, all, experiment.Options{Runner: s.r})

	total := plan.Len()
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed := 0
	for i, sc := range plan.scenarios {
		wg.Add(1)
		go func(i int, sc Scenario) {
			defer wg.Done()
			res := Result{Index: i, Scenario: sc, Err: errs[i]}
			if res.Err == nil {
				res.Outcome, res.Err = gather(ctx, sc, sweeps[i], s.r, comb)
			}
			mu.Lock()
			completed++
			if ro.onResult != nil {
				ro.onResult(res, completed, total)
			}
			mu.Unlock()
			out <- res
		}(i, sc)
	}
	go func() {
		wg.Wait()
		// Abandon enqueued work no gather is waiting for, then let the
		// stragglers publish before the stream closes — otherwise a
		// Flush right after could race their store writes and lose them.
		stopEnqueue()
		waitEnqueued()
		comb.waitEnqueued()
		close(out)
	}()
	return out
}

// combiner batches a plan's combined runs, the one simulation each
// scenario that resizes several caches makes after its sweeps, so that
// same-front combined configs gang as the sweeps' candidates do. A
// scenario's combined config that the memo or the store already holds
// resolves at once (a warm plan never waits here); a cold one joins the
// batch, and its scenario waits until every scenario counted in pending
// has either joined, resolved, or failed. The last to arrive enqueues
// the batch, and each waiting scenario then gathers its result by
// joining the in-flight work.
type combiner struct {
	r   *runner.Runner
	ctx context.Context // the plan's enqueue context

	mu      sync.Mutex
	pending int // scenarios that have yet to arrive
	jobs    []runner.Job
	ready   chan struct{} // closed once the batch is enqueued
	wait    func()        // the batch's Enqueue wait
}

// run resolves or batches the combined config cfg and returns its
// result; it counts as its scenario's arrival.
func (c *combiner) run(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	key := cfg.Key()
	if res, err, ok := c.r.Resolve(key); ok {
		c.arrive(nil)
		return res, err
	}
	return c.runCold(ctx, cfg, key)
}

// runCold adds a cold combined config to the batch, waits until the
// batch is enqueued and joins its run. The batch keeps cfg, so it lives
// on the heap; a warm run never gets here.
func (c *combiner) runCold(ctx context.Context, cfg sim.Config, key sim.Key) (sim.Result, error) {
	ready := c.arrive(&runner.Job{Cfg: &cfg, Key: key})
	select {
	case <-ready:
	case <-ctx.Done():
		return sim.Result{}, ctx.Err()
	}
	return c.r.Run(ctx, cfg)
}

// arrive records one counted scenario's arrival, with its cold combined
// job if it has one, and returns the channel that closes once the batch
// is enqueued. The last arrival enqueues it.
func (c *combiner) arrive(j *runner.Job) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ready == nil {
		c.ready = make(chan struct{})
	}
	if j != nil {
		c.jobs = append(c.jobs, *j)
	}
	if c.pending--; c.pending == 0 {
		if len(c.jobs) > 0 {
			_, c.wait = c.r.Enqueue(c.ctx, c.jobs)
		}
		close(c.ready)
	}
	return c.ready
}

// waitEnqueued waits for the batch's stragglers, as Runner.Enqueue's
// wait does.
func (c *combiner) waitEnqueued() {
	c.mu.Lock()
	wait := c.wait
	c.mu.Unlock()
	if wait != nil {
		wait()
	}
}

// Collect drains a Run stream and returns every result in plan order.
// The returned error is the first per-scenario error in plan order, or
// nil if every scenario succeeded; the results slice is complete either
// way, so callers can inspect the scenarios that did succeed.
func Collect(stream <-chan Result) ([]Result, error) {
	var out []Result
	for r := range stream {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	for _, r := range out {
		if r.Err != nil {
			return out, fmt.Errorf("resizecache: scenario %d (%s): %w", r.Index, r.Scenario.Benchmark, r.Err)
		}
	}
	return out, nil
}
