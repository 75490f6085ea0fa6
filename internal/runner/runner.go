// Package runner is the run-orchestration layer: every simulation in
// the repository executes through a Runner, which owns the worker pool
// and a content-addressed result store keyed by sim.Config fingerprints
// (sim.Key). The paper's evaluation is a design-space sweep that
// re-visits many identical configurations — every profiling sweep
// re-runs the non-resizable baseline, and figure drivers repeat whole
// sweeps — so the Runner:
//
//   - memoizes completed results, so an identical config simulates once
//     per process (or once ever, with a persistent store);
//   - deduplicates identical configs that are in flight concurrently,
//     so parallel sweeps sharing a baseline do not race to re-run it;
//   - memoizes sweep-level artifacts (serialized winner selections, see
//     Artifact) so whole sweeps — not just individual configs — resolve
//     without re-running when a later figure driver repeats them; a
//     cached payload the caller's decode rejects is a miss, recomputed
//     once;
//   - bounds concurrency with one shared semaphore instead of a pool
//     per sweep, so nested experiment drivers cannot oversubscribe;
//   - optionally bounds the in-memory memo table with LRU eviction, so
//     very large sweeps cannot grow it without limit;
//   - honours context cancellation between (not within) simulations;
//   - returns batch results in deterministic submission order;
//   - accepts whole plans up front (Enqueue): a batch of configs is
//     registered and scheduled without waiting, coalesced into gangs of
//     same-front-end configs, so later Run/RunAll calls join the
//     in-flight work and the pool interleaves across sweeps.
//
// Results and artifacts share one single-flight table type (memo, in
// memo.go): claim-or-join, publish with keep-or-evict, a joined waiter
// that claims again when its owner's outcome left the table, and the
// optional LRU bound.
//
// Every caller constructs its Runner with New and passes it to whatever
// runs simulations on it, so memoization is shared exactly as far as
// the runner is.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"resizecache/internal/sim"
)

// Options configures a Runner.
type Options struct {
	// Workers bounds concurrently executing simulations (0 = GOMAXPROCS).
	Workers int
	// Store, if non-nil, persists results and sweep artifacts across
	// processes: fingerprints found in the store resolve without
	// simulating, and every fresh outcome — including real simulation
	// errors, but never cancellations — is added to it. Call Store.Flush
	// to write it out.
	Store Store
	// MemoLimit bounds the number of completed entries kept in the
	// in-memory memo table; the least recently used entry is evicted
	// beyond it (0 = unbounded). Evicted configs re-simulate on the next
	// submission unless a Store still holds them.
	MemoLimit int
	// RunGang overrides the simulation entry point (nil = sim.RunGang
	// over the runner's recorded workload streams). It returns one
	// Result per config, in order; a single config runs as a gang of
	// one. Tests stub it to control timing and inject failures.
	RunGang func([]sim.Config) ([]sim.Result, error)
}

// gangSize bounds how many machines one gang simulation (sim.RunGang)
// that Enqueue coalesces starts with: a gang takes up to gangSize share
// classes of same-front-end configs (sim.Config.ShareKey), whole, and
// runs one machine per class. Where a class's dynamic controllers
// disagree the machine forks, so the gang can end with more machines
// than it started with. Eight machines amortize the shared front-end
// well past the 2× mark while keeping a gang's machine state compact
// and the pool's units of work evenly sized.
const gangSize = 8

// Stats is a snapshot of a Runner's scheduling counters.
type Stats struct {
	// Submitted counts Run calls (RunAll counts once per config).
	Submitted uint64
	// MemoHits resolved against an already-completed in-memory result.
	// A repeated submission is a memo hit or an in-flight dedup
	// depending on whether the run it repeats finished first, so only
	// MemoHits+InFlightDedups is reproducible across runs.
	MemoHits uint64
	// StoreHits resolved against the persistent store without simulating.
	StoreHits uint64
	// InFlightDedups joined an identical config already executing: a
	// repeated submission that arrived before the run it repeats
	// finished (see MemoHits).
	InFlightDedups uint64
	// Runs actually executed a simulation.
	Runs uint64
	// Errors counts failed submissions: fresh simulations that returned
	// an error plus stored failures replayed from the persistent store.
	Errors uint64
	// Evictions counts completed memo entries dropped by the LRU bound.
	Evictions uint64
	// Enqueued counts configs submitted through Enqueue that were not
	// already memoized or in flight (each got an owner goroutine).
	Enqueued uint64
	// Ganged counts configs simulated as members of a coalesced gang (a
	// subset of Runs): one workload+engine pass served each batch.
	Ganged uint64
	// GangBatches counts the gang passes dispatched; Ganged/GangBatches
	// is the realized average gang size.
	GangBatches uint64
	// EnqueueBatches counts Enqueue calls that registered fresh work —
	// the batched, non-blocking submission passes of plan execution.
	// Calls fully covered by the memo table or in-flight entries (a warm
	// plan, or a solo sweep whose configs an earlier pass enqueued) are
	// not counted.
	EnqueueBatches uint64
	// Barriers is always 0 and nothing counts it: RunAll enqueues its own
	// batch, so no gather fans out per config any more. The field stays
	// only because the JSON of a resizecache.Outcome includes its Stats,
	// and perfbench's oracle digests that JSON; it goes with the next
	// change to the benchmark.
	Barriers uint64
	// ArtifactHits resolved a sweep-level artifact from the in-memory
	// tier (including joins of an in-flight computation).
	ArtifactHits uint64
	// ArtifactStoreHits resolved an artifact from the persistent store.
	ArtifactStoreHits uint64
	// ArtifactComputes ran a sweep to produce an artifact.
	ArtifactComputes uint64
	// RemoteHits counts result and artifact lookups served by a remote
	// store tier (a RemoteCounter backend such as NetStore). They are a
	// subset of StoreHits/ArtifactStoreHits: every remote hit is also a
	// store hit, so the two together separate local memo traffic from
	// network store traffic.
	RemoteHits uint64
	// RemoteErrors counts remote-store round trips that failed and were
	// degraded to misses (lookups) or dropped (records).
	RemoteErrors uint64
	// BreakerTrips counts the times the remote store's circuit breaker
	// opened (a BreakerCounter backend such as NetStore): runs of
	// consecutive failures after which the store stopped calling out
	// and served misses locally for a cooldown.
	BreakerTrips uint64
	// WarmupHits counts simulations whose warmup prefix was restored
	// from a persisted checkpoint instead of being re-executed (sampled
	// configs with a warmup, running through the default entry points
	// against a Store). This is the counter CI's warm-replay smoke job
	// asserts is nonzero.
	WarmupHits uint64
	// WarmupSaves counts warmup checkpoints computed and recorded for
	// later runs to restore.
	WarmupSaves uint64
}

// Hits is the total number of submissions that skipped simulation.
func (s Stats) Hits() uint64 { return s.MemoHits + s.StoreHits + s.InFlightDedups }

func (s Stats) String() string {
	out := fmt.Sprintf("runner: %d submitted, %d simulated, %d memo hits, %d store hits, %d in-flight dedups, %d errors, %d evictions; batch: %d enqueued in %d passes; gangs: %d ganged in %d batches; artifacts: %d hits, %d store hits, %d computes",
		s.Submitted, s.Runs, s.MemoHits, s.StoreHits, s.InFlightDedups, s.Errors,
		s.Evictions, s.Enqueued, s.EnqueueBatches,
		s.Ganged, s.GangBatches,
		s.ArtifactHits, s.ArtifactStoreHits, s.ArtifactComputes)
	if s.RemoteHits > 0 || s.RemoteErrors > 0 || s.BreakerTrips > 0 {
		out += fmt.Sprintf("; remote: %d hits, %d errors", s.RemoteHits, s.RemoteErrors)
		if s.BreakerTrips > 0 {
			out += fmt.Sprintf(", %d breaker trips", s.BreakerTrips)
		}
	}
	if s.WarmupHits > 0 || s.WarmupSaves > 0 {
		out += fmt.Sprintf("; warmups: %d checkpoint hits, %d saves", s.WarmupHits, s.WarmupSaves)
	}
	return out
}

// Delta returns the field-wise difference s − prev: the runner activity
// between two snapshots. The facade reports per-call deltas in its
// outcomes instead of cumulative counters; note that on a shared runner
// a delta attributes everything that happened in the window, including
// work submitted by concurrent callers.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Submitted:         s.Submitted - prev.Submitted,
		MemoHits:          s.MemoHits - prev.MemoHits,
		StoreHits:         s.StoreHits - prev.StoreHits,
		InFlightDedups:    s.InFlightDedups - prev.InFlightDedups,
		Runs:              s.Runs - prev.Runs,
		Errors:            s.Errors - prev.Errors,
		Evictions:         s.Evictions - prev.Evictions,
		Enqueued:          s.Enqueued - prev.Enqueued,
		Ganged:            s.Ganged - prev.Ganged,
		GangBatches:       s.GangBatches - prev.GangBatches,
		EnqueueBatches:    s.EnqueueBatches - prev.EnqueueBatches,
		ArtifactHits:      s.ArtifactHits - prev.ArtifactHits,
		ArtifactStoreHits: s.ArtifactStoreHits - prev.ArtifactStoreHits,
		ArtifactComputes:  s.ArtifactComputes - prev.ArtifactComputes,
		RemoteHits:        s.RemoteHits - prev.RemoteHits,
		RemoteErrors:      s.RemoteErrors - prev.RemoteErrors,
		BreakerTrips:      s.BreakerTrips - prev.BreakerTrips,
		WarmupHits:        s.WarmupHits - prev.WarmupHits,
		WarmupSaves:       s.WarmupSaves - prev.WarmupSaves,
	}
}

// Runner schedules simulations; see the package comment. The zero value
// is not usable — construct with New.
type Runner struct {
	sem     chan struct{}
	store   Store
	runGang func([]sim.Config) ([]sim.Result, error)

	// results memoizes simulation outcomes, bounded by MemoLimit; a
	// cancellation leaves it. artifacts memoizes artifact payloads,
	// unbounded; any error leaves it.
	results   *memo[sim.Result]
	artifacts *memo[artifact]

	submitted, memoHits, storeHits, runs, errs atomic.Uint64
	artHits, artStoreHits, artComputes         atomic.Uint64
	enqueued, enqueueBatches                   atomic.Uint64
	ganged, gangBatches                        atomic.Uint64
	warmupHits, warmupSaves                    atomic.Uint64
}

// noteWarmup folds one simulation's warmup-checkpoint outcome into the
// counters. Only the default (non-stubbed) entry point reports.
func (r *Runner) noteWarmup(ws sim.WarmupStats) {
	if ws.CheckpointHit {
		r.warmupHits.Add(1)
	}
	if ws.CheckpointSaved {
		r.warmupSaves.Add(1)
	}
}

// checkpointTier exposes the Runner's store as a warmup-checkpoint
// store. Warmup checkpoints ride the artifact half of the Store
// contract, so any persistent backend — disk or network — shares them
// across processes for free.
func (r *Runner) checkpointTier() sim.CheckpointStore {
	if r.store == nil {
		return nil
	}
	return r.store
}

// New constructs a Runner.
func New(opts Options) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		sem:       make(chan struct{}, workers),
		store:     opts.Store,
		runGang:   opts.RunGang,
		results:   newMemo[sim.Result](opts.MemoLimit, isCancellation),
		artifacts: newMemo[artifact](0, func(error) bool { return true }),
	}
	if r.runGang == nil {
		// The default entry point replays each repeated workload stream,
		// detailed or sampled, from one recording per runner; the memo
		// holds up to 4 MiB of recordings per worker, whatever the
		// number of streams that is. It is checkpoint-aware: sampled
		// configs with a warmup prefix restore (or record) their warm
		// state through the Runner's store, so configs sharing a
		// front-end skip warmup — including across processes when the
		// store persists.
		streams := sim.NewStreams(workers)
		r.runGang = func(cfgs []sim.Config) ([]sim.Result, error) {
			out, ws, err := streams.RunGang(cfgs, r.checkpointTier())
			r.noteWarmup(ws)
			return out, err
		}
	}
	return r
}

// Stats snapshots the counters. When the store is a remote tier
// (RemoteCounter), its hit/error counts are folded in, as are breaker
// trips when it guards itself with a circuit breaker (BreakerCounter).
func (r *Runner) Stats() Stats {
	var remoteHits, remoteErrs, breakerTrips uint64
	if rc, ok := r.store.(RemoteCounter); ok {
		remoteHits, remoteErrs = rc.RemoteCounts()
	}
	if bc, ok := r.store.(BreakerCounter); ok {
		breakerTrips = bc.BreakerTrips()
	}
	return Stats{
		RemoteHits:        remoteHits,
		RemoteErrors:      remoteErrs,
		BreakerTrips:      breakerTrips,
		Submitted:         r.submitted.Load(),
		MemoHits:          r.memoHits.Load(),
		StoreHits:         r.storeHits.Load(),
		InFlightDedups:    r.results.joins.Load(),
		Runs:              r.runs.Load(),
		Errors:            r.errs.Load(),
		Evictions:         r.results.evictions.Load(),
		Enqueued:          r.enqueued.Load(),
		Ganged:            r.ganged.Load(),
		GangBatches:       r.gangBatches.Load(),
		EnqueueBatches:    r.enqueueBatches.Load(),
		ArtifactHits:      r.artHits.Load(),
		ArtifactStoreHits: r.artStoreHits.Load(),
		ArtifactComputes:  r.artComputes.Load(),
		WarmupHits:        r.warmupHits.Load(),
		WarmupSaves:       r.warmupSaves.Load(),
	}
}

// Job is one config to run and its fingerprint (sim.Config.Key),
// computed once by whoever built the config. Cfg points into the
// caller's configs: the runner reads it until the job's work is done,
// so the caller must not modify it meanwhile.
type Job struct {
	Cfg *sim.Config
	Key sim.Key
}

// Jobs fingerprints cfgs into jobs that point into it.
func Jobs(cfgs []sim.Config) []Job {
	jobs := make([]Job, len(cfgs))
	for i := range cfgs {
		jobs[i] = Job{Cfg: &cfgs[i], Key: cfgs[i].Key()}
	}
	return jobs
}

// Run executes (or resolves from memo/store/in-flight work) one config.
// Identical configs are only ever simulated once per Runner; errors are
// memoized like results, except cancellation errors, which evict the
// entry so a later live context can retry.
func (r *Runner) Run(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	return r.run(ctx, Job{Cfg: &cfg, Key: cfg.Key()})
}

// run is Run for a fingerprinted config.
func (r *Runner) run(ctx context.Context, j Job) (sim.Result, error) {
	r.submitted.Add(1)
	res, err, from := r.results.do(ctx, j.Key, nil, func(s *slot[sim.Result]) {
		r.execute(ctx, []gangItem{{Job: j, s: s}})
	})
	if from == hit {
		r.memoHits.Add(1)
	}
	return res, err
}

// fromStore publishes slot s for key from the persistent store, if the
// store holds it; ok reports whether it did.
func (r *Runner) fromStore(key sim.Key, s *slot[sim.Result]) (res sim.Result, err error, ok bool) {
	if r.store == nil {
		return sim.Result{}, nil, false
	}
	sr, ok := r.store.Lookup(key)
	if !ok {
		return sim.Result{}, nil, false
	}
	res, err = r.completeStored(key, s, sr)
	return res, err, true
}

// completeStored publishes slot s for key with a stored outcome. A
// stored failure replays as a StoredError instead of re-simulating a
// config known to fail.
func (r *Runner) completeStored(key sim.Key, s *slot[sim.Result], sr StoredResult) (sim.Result, error) {
	r.storeHits.Add(1)
	var err error
	if sr.Err != "" {
		err = &StoredError{Msg: sr.Err}
		r.errs.Add(1)
	}
	r.results.publish(key, s, sr.Result, err)
	return sr.Result, err
}

// Resolve answers a submission of key at once when it can — from a
// completed memo entry, or from the persistent store — and counts it
// exactly as Run would. It never simulates and never waits: ok is false
// for a fingerprint that is unknown or in flight, and the caller goes
// on to run it.
func (r *Runner) Resolve(key sim.Key) (res sim.Result, err error, ok bool) {
	if s, published := r.results.peek(key); s != nil {
		if !published {
			return sim.Result{}, nil, false
		}
		r.submitted.Add(1)
		r.memoHits.Add(1)
		return s.val, s.err, true
	}
	if r.store == nil {
		return sim.Result{}, nil, false
	}
	sr, stored := r.store.Lookup(key)
	if !stored {
		return sim.Result{}, nil, false
	}
	s, from := r.results.claim(key, false)
	if from != owned {
		// Another submission got there first: the caller joins it.
		return sim.Result{}, nil, false
	}
	r.submitted.Add(1)
	res, err = r.completeStored(key, s, sr)
	return res, err, true
}

// Enqueue submits a batch of jobs without waiting for their results:
// fingerprints not yet known to the runner are registered synchronously
// — before Enqueue returns, a later Run/RunAll of the same config joins
// the in-flight work instead of simulating it again — and execute on
// the shared worker pool in the background. Fingerprints already
// memoized or executing are skipped. Outcomes land in the memo table
// and persistent store exactly as if Run had been called; cancelling
// ctx abandons work that has not started, leaving those fingerprints
// retryable. Returns the number of jobs actually enqueued.
//
// Enqueue is the batch-scheduling primitive behind RunAll and plan
// execution: a multi-sweep plan enqueues every profiling simulation in
// one pass, so the pool interleaves across sweeps and scenarios instead
// of draining one sweep's batch at a time. It takes each job's key as
// given and its config by pointer, so a plan's configs are hashed once
// and copied only into the gangs that run them.
//
// The returned wait function blocks until every goroutine this call
// spawned has published its outcome (to the memo table and, when
// configured, the persistent store). Callers that flush a store after
// abandoning a batch — a plan whose gathers errored early, leaving
// enqueued stragglers mid-simulation — must cancel ctx and wait before
// flushing, or completed results can land after the flush and be lost.
// Enqueue additionally coalesces the batch's memo-miss configs into
// gangs: configs sharing a front-end fingerprint (sim.Config.FrontKey —
// same benchmark, budget, engine, pipeline) run through one gang
// simulation of up to eight share classes (sim.Config.ShareKey)
// instead of one pass each; a class is never split across gangs.
// Coalescing is invisible to waiters — outcomes publish to the same
// entries — and is accounted by the Ganged/GangBatches counters.
func (r *Runner) Enqueue(ctx context.Context, jobs []Job) (int, func()) {
	if len(jobs) == 0 || ctx.Err() != nil {
		return 0, func() {}
	}
	var wg sync.WaitGroup
	var fresh []gangItem
	for _, j := range jobs {
		if s, from := r.results.claim(j.Key, false); from == owned {
			fresh = append(fresh, gangItem{Job: j, s: s})
		}
	}
	if len(fresh) == 0 {
		return 0, func() {}
	}
	r.enqueueBatches.Add(1)
	r.enqueued.Add(uint64(len(fresh)))

	// Group the fresh entries by shared front-end, and each front group
	// by share class (sim.Config.ShareKey), both in order of first
	// appearance. A front group dispatches as gangs of up to gangSize
	// whole classes — a gang starts one machine per class and forks it
	// where the class's controllers disagree — and a lone straggler as a
	// gang of one.
	for _, g := range groupBy(fresh, sim.Config.FrontKey) {
		classes := groupBy(g, sim.Config.ShareKey)
		for lo := 0; lo < len(classes); lo += gangSize {
			batch := slices.Concat(classes[lo:min(lo+gangSize, len(classes))]...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.execute(ctx, batch)
			}()
		}
	}
	return len(fresh), wg.Wait
}

// groupBy partitions items by the key of their config, in order of
// first appearance.
func groupBy(items []gangItem, key func(sim.Config) sim.Key) [][]gangItem {
	at := make(map[sim.Key]int)
	var groups [][]gangItem
	for _, it := range items {
		k := key(*it.Cfg)
		n, ok := at[k]
		if !ok {
			n = len(groups)
			at[k] = n
			groups = append(groups, nil)
		}
		groups[n] = append(groups[n], it)
	}
	return groups
}

// gangItem is one claimed slot awaiting execution: its job and the
// memo-table slot its owner publishes to.
type gangItem struct {
	Job
	s *slot[sim.Result]
}

// execute owns a batch of registered same-front entries: members found
// in the persistent store resolve from it, and the rest run as one gang
// pass under a single worker slot, then publish to their entries and
// the store. A gang of several that fails re-runs each member alone, so
// each member's error outcome is the one it gets when submitted alone.
// Run owners, Enqueue's gangs and lone stragglers, and that fallback all
// funnel through here, so every simulation persists, counts and cancels
// the same way. Ganged and GangBatches count only passes that ran more
// than one member live.
func (r *Runner) execute(ctx context.Context, batch []gangItem) {
	// live holds the positions in batch of the members the store did not
	// answer. Positions, not a filtered copy of the items: storing an
	// item would move a lone Run's config to the heap.
	live := make([]int, 0, gangSize)
	for i, it := range batch {
		if _, _, ok := r.fromStore(it.Key, it.s); !ok {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return
	}

	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		for _, i := range live {
			r.results.publish(batch[i].Key, batch[i].s, sim.Result{}, ctx.Err())
		}
		return
	}
	cfgs := make([]sim.Config, len(live))
	for k, i := range live {
		cfgs[k] = *batch[i].Cfg
	}
	results, err := r.runGang(cfgs)
	<-r.sem

	if len(live) > 1 {
		if err != nil {
			// The gang entry point rejects the whole batch on any member's
			// error; re-run each member alone so it gets its own outcome.
			for _, i := range live {
				r.execute(ctx, batch[i:i+1])
			}
			return
		}
		r.gangBatches.Add(1)
		r.ganged.Add(uint64(len(live)))
	}
	for k, i := range live {
		it := batch[i]
		var res sim.Result
		if err == nil {
			res = results[k]
		} else {
			r.errs.Add(1)
		}
		r.runs.Add(1)
		if r.store != nil && !isCancellation(err) {
			sr := StoredResult{Result: res}
			if err != nil {
				sr.Err = err.Error()
			}
			r.store.Record(it.Key, sr)
		}
		r.results.publish(it.Key, it.s, res, err)
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunAll executes a batch of jobs and returns results in submission
// order. It enqueues the batch — so same-front-end configs coalesce
// into gangs and the pool runs them without a goroutine per config —
// then gathers each result in order. The first failing config (by
// submission index) determines the returned error; before returning,
// RunAll cancels whatever it enqueued that is still pending and waits
// for it, so no simulation it started outlives the call. Concurrency is
// bounded by the Runner's shared worker pool.
func (r *Runner) RunAll(ctx context.Context, jobs []Job) ([]sim.Result, error) {
	enqCtx, stop := context.WithCancel(ctx)
	_, wait := r.Enqueue(enqCtx, jobs)
	defer func() { stop(); wait() }()
	results := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		res, err := r.run(ctx, j)
		if err != nil {
			return nil, fmt.Errorf("runner: config %d (%s): %w", i, j.Cfg.Benchmark, err)
		}
		results[i] = res
	}
	return results, nil
}
