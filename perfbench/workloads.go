package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resizecache"
	"resizecache/figures"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/simd"
	simdclient "resizecache/internal/simd/client"
)

// workers sizes every session and the daemon for a two-core machine;
// main also sets GOMAXPROCS to it.
const workers = 2

// scale sizes the workloads. fullScale is what the program runs; the
// smoke test substitutes a tiny one.
type scale struct {
	apps          []string
	orgs          []resizecache.Organization
	strategies    []resizecache.Strategy
	sides         []resizecache.Sides
	engines       []resizecache.Engine
	detailedInstr uint64 // sweep-cold and the replays' cold fills
	sampledInstr  uint64 // sweep-sampled
	sampling      resizecache.SamplingSpec
	setupRepeats  int    // repeatable set-up runs; setup_s takes their median
	probeTime     string // -test.benchtime of each layer probe
	pingEvery     int    // client A pings the daemon every this many plans
	maxSubPlan    int    // largest replay sub-plan
}

// fullScale is the paper's design space on three representative apps —
// a small-working-set app, a conflict-bound app, and a phase-varying
// one — sized so one cold grid plan takes a few seconds on two cores
// and several fit in one measured run.
var fullScale = scale{
	apps:          []string{"m88ksim", "vpr", "su2cor"},
	orgs:          []resizecache.Organization{resizecache.SelectiveWays, resizecache.SelectiveSets, resizecache.Hybrid},
	strategies:    []resizecache.Strategy{resizecache.Static, resizecache.Dynamic},
	sides:         []resizecache.Sides{resizecache.DOnly, resizecache.IOnly, resizecache.BothSides},
	engines:       []resizecache.Engine{resizecache.OutOfOrderEngine, resizecache.InOrderEngine},
	detailedInstr: 40_000,
	sampledInstr:  250_000,
	sampling:      resizecache.DefaultSampling(),
	setupRepeats:  3,
	probeTime:     "100ms",
	pingEvery:     50,
	maxSubPlan:    8,
}

// grid is the workloads' design space: 108 scenarios at full scale.
func (s scale) grid(sampled bool) resizecache.Grid {
	g := resizecache.Grid{Benchmarks: s.apps, Organizations: s.orgs, Strategies: s.strategies,
		Sides: s.sides, Engines: s.engines, Instructions: s.detailedInstr}
	if sampled {
		g.Instructions, g.Sampling = s.sampledInstr, s.sampling
	}
	return g
}

func (s scale) figOpts() figures.Options {
	return figures.Options{Instructions: s.detailedInstr, Apps: s.apps}
}

// bench is one workload's life cycle. prepare is the one-time part of
// set-up, reset the repeatable part (it also rewinds the seeded request
// stream, so a second measured pass replays the first), and measure the
// measured phase.
type bench interface {
	prepare(ctx context.Context) error
	reset(ctx context.Context) error
	measure(ctx context.Context, d time.Duration) (pass, error)
	// stats snapshots the cumulative runner counters of the system under
	// test since the last reset.
	stats() runner.Stats
	// setupChecks reports how many set-up outputs were checked and how
	// many were wrong.
	setupChecks() (attempted, failed int)
	// facts reports workload-specific layer values of the last pass.
	facts() map[string]float64
	close() error
}

type workloadDef struct {
	name, why string
	sampled   bool // runs the interval-sampled grid
	// layers are the span layers a traced run of the workload records.
	layers []string
	make   func(sc scale, o *oracle, seed uint64, h *hooks) bench
}

var workloads = []workloadDef{
	{
		name:   "sweep-cold",
		why:    "cold full-detail grid plans on fresh sessions: simulation, gang dispatch and the workload generator dominate",
		layers: []string{"resizecache", "runner"},
		make: func(sc scale, o *oracle, seed uint64, h *hooks) bench {
			return &sweepBench{grid: sc.grid(false), want: &o.Detailed, seed: seed, h: h}
		},
	},
	{
		name:    "sweep-sampled",
		why:     "the same grid interval-sampled: skip, functional warming and warmup checkpoints through the store; the only workload with an accuracy figure",
		sampled: true,
		layers:  []string{"resizecache", "runner"},
		make: func(sc scale, o *oracle, seed uint64, h *hooks) bench {
			return &sweepBench{grid: sc.grid(true), want: &o.Sampled, seed: seed, h: h}
		},
	},
	{
		name:   "replay-local",
		why:    "warm requests to a session reopened on a DiskStore: zero simulations, all facade, key hashing and memo tiers",
		layers: []string{"resizecache", "figures", "runner"},
		make: func(sc scale, o *oracle, seed uint64, h *hooks) bench {
			return &localBench{sc: sc, want: &o.Detailed, seed: seed, h: h}
		},
	},
	{
		name:   "replay-remote",
		why:    "warm plans through the simd daemon beside store traffic on a second connection: wire framing, JSON and daemon loops",
		layers: []string{"resizecache", "runner", "simd", "wire"},
		make: func(sc scale, o *oracle, seed uint64, h *hooks) bench {
			return &remoteBench{sc: sc, want: &o.Detailed, seed: seed, h: h}
		},
	},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// newRNG returns the seeded stream of one input of a workload.
func newRNG(seed uint64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*1_000_003 + stream))
}

// loop runs closed-loop requests until d has elapsed, or until the next
// one would end past d judging by the last one's latency. At least one
// request runs.
func loop(d time.Duration, step func() (time.Duration, error)) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= d; n++ {
		var err error
		if last, err = step(); err != nil {
			return err
		}
	}
	return nil
}

// addStats sums two counter snapshots field by field.
func addStats(a, b runner.Stats) runner.Stats {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
	}
	return a
}

// benchDir holds the runs' scratch files (stores, sockets, traces)
// inside the working directory.
const benchDir = ".bench_build"

func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(benchDir, prefix)
}

// coldOutcomes checks a cold set-up plan against the oracle and indexes
// its outcomes for the replays to match.
func coldOutcomes(results []resizecache.Result, want *sweepOracle) (map[string]resizecache.Outcome, int) {
	cold := make(map[string]resizecache.Outcome, len(results))
	failed := 0
	for _, r := range results {
		id := scenarioID(r.Scenario)
		if r.Err != nil || want.Outcomes[id] != outcomeDigest(r.Outcome) {
			failed++
			continue
		}
		cold[id] = withoutStats(r.Outcome)
	}
	return cold, failed
}

// ---------------------------------------------------------------------
// sweep-cold and sweep-sampled
// ---------------------------------------------------------------------

// sweepBench runs the whole grid as one plan per request, each on a
// fresh session with a MemStore attached (as simd and figures -resume
// run), in a seeded order that changes every request. Set-up runs one
// plan unmeasured, so the measured plans find the process warm.
type sweepBench struct {
	grid resizecache.Grid
	want *sweepOracle
	seed uint64
	h    *hooks

	rng            *rand.Rand
	scenarios      []resizecache.Scenario
	sum            runner.Stats
	edpErr         []float64
	checked, wrong int
}

func (b *sweepBench) prepare(ctx context.Context) error {
	if b.h != nil {
		b.h.attribute = true
	}
	if err := b.want.check(b.grid); err != nil {
		return err
	}
	plan, err := b.grid.Expand()
	if err != nil {
		return err
	}
	var p pass
	if _, err := b.runPlan(ctx, plan, &p); err != nil {
		return err
	}
	b.checked, b.wrong = p.attempted, p.failed
	return nil
}

func (b *sweepBench) reset(context.Context) error {
	plan, err := b.grid.Expand()
	if err != nil {
		return err
	}
	b.scenarios = plan.Scenarios()
	b.rng = newRNG(b.seed, 1)
	b.sum = runner.Stats{}
	return nil
}

func (b *sweepBench) measure(ctx context.Context, d time.Duration) (pass, error) {
	var p pass
	b.edpErr = nil
	m := startMeter()
	err := loop(d, func() (time.Duration, error) {
		order := append([]resizecache.Scenario(nil), b.scenarios...)
		b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		plan, err := resizecache.PlanOf(order...)
		if err != nil {
			return 0, err
		}
		return b.runPlan(ctx, plan, &p)
	})
	m.stop(&p)
	p.edpErr = b.edpErr
	return p, err
}

// runPlan runs one plan cold and checks it.
func (b *sweepBench) runPlan(ctx context.Context, plan resizecache.Plan, p *pass) (time.Duration, error) {
	sess, err := resizecache.NewSessionWith(resizecache.SessionOptions{
		Workers: workers, Store: b.h.wrapStore(runner.NewMemStore(), true)})
	if err != nil {
		return 0, err
	}
	var results []resizecache.Result
	lat := b.h.request("resizecache", "plan", plan.Len(), func() {
		for r := range sess.Run(ctx, plan) {
			results = append(results, r)
		}
	})
	p.add(lat)
	st := sess.Stats()
	b.sum = addStats(b.sum, st)
	p.instr += st.Runs * b.grid.Instructions
	b.check(p, results)
	return lat, nil
}

// check counts each scenario as a request: wrong or failed outcomes, and
// a plan whose sorted-outcome digest is off, are failures.
func (b *sweepBench) check(p *pass, results []resizecache.Result) {
	failed := p.failed
	got := make(map[string]string, len(results))
	var errSum float64
	for _, r := range results {
		p.attempted++
		id := scenarioID(r.Scenario)
		if r.Err != nil {
			p.failed++
			continue
		}
		got[id] = outcomeDigest(r.Outcome)
		if got[id] != b.want.Outcomes[id] {
			p.failed++
		}
		errSum += math.Abs(r.Outcome.EDPReductionPct - b.want.FullDetailEDP[id])
	}
	if p.failed == failed && planDigest(got) != b.want.PlanDigest {
		p.failed++
	}
	if b.want.FullDetailEDP != nil && len(results) > 0 {
		b.edpErr = append(b.edpErr, errSum/float64(len(results)))
	}
}

func (b *sweepBench) stats() runner.Stats     { return b.sum }
func (b *sweepBench) setupChecks() (int, int) { return b.checked, b.wrong }
func (b *sweepBench) close() error            { return nil }
func (b *sweepBench) facts() map[string]float64 {
	if len(b.edpErr) == 0 {
		return nil
	}
	return map[string]float64{"sim.sampled_edp_err_pp": median(b.edpErr)}
}

// ---------------------------------------------------------------------
// replay-local
// ---------------------------------------------------------------------

// figureRequests are the warm renders replay-local mixes in: Figures 4
// and 5 and the Figure 7 in-order d-cache panel.
var figureRequests = []struct {
	name string
	run  func(context.Context, resizecache.Executor, figures.Options) (any, error)
}{
	{"figure4", func(ctx context.Context, s resizecache.Executor, o figures.Options) (any, error) {
		return figures.Figure4(ctx, s, o)
	}},
	{"figure5", func(ctx context.Context, s resizecache.Executor, o figures.Options) (any, error) {
		return figures.Figure5(ctx, s, resizecache.DOnly, o)
	}},
	{"figure7", func(ctx context.Context, s resizecache.Executor, o figures.Options) (any, error) {
		return figures.StrategyPanel(ctx, s, resizecache.DOnly, resizecache.InOrderEngine, o)
	}},
}

// localBench replays seeded requests against a session reopened on the
// DiskStore its set-up filled: 80% Simulate of one grid scenario, 15% Run
// of a 2–8-scenario sub-plan, 5% a warm figure render. Every answer must
// equal set-up's cold one.
type localBench struct {
	sc   scale
	want *sweepOracle
	seed uint64
	h    *hooks

	dir, path      string
	scenarios      []resizecache.Scenario
	cold           map[string]resizecache.Outcome
	figs           [][]byte // cold renders, as JSON
	checked, wrong int
	sess           *resizecache.Session
	rng            *rand.Rand
	openS          float64
}

func (b *localBench) prepare(ctx context.Context) error {
	if b.h != nil {
		b.h.attribute = true
	}
	g := b.sc.grid(false)
	if err := b.want.check(g); err != nil {
		return err
	}
	var err error
	if b.dir, err = scratchDir("replay-local-"); err != nil {
		return err
	}
	b.path = filepath.Join(b.dir, "store.json")
	sess, err := resizecache.NewSessionWith(resizecache.SessionOptions{Workers: workers, StorePath: b.path})
	if err != nil {
		return err
	}
	plan, err := g.Expand()
	if err != nil {
		return err
	}
	b.scenarios = plan.Scenarios()
	results, err := resizecache.Collect(sess.Run(ctx, plan))
	if err != nil {
		return err
	}
	b.cold, b.wrong = coldOutcomes(results, b.want)
	b.checked = len(results)
	for _, f := range figureRequests {
		v, err := f.run(ctx, sess, b.sc.figOpts())
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		b.figs = append(b.figs, data)
	}
	return sess.Flush()
}

func (b *localBench) reset(context.Context) error {
	t0 := time.Now()
	disk, err := runner.OpenDiskStore(b.path)
	if err != nil {
		return err
	}
	b.openS = time.Since(t0).Seconds()
	if rec := b.h.recorder(); rec != nil {
		rec.timed(span{name: "runner.disk_open", layer: "runner", kind: "disk_open", lane: laneStore,
			id: rec.nextID.Add(1)}, t0)
	}
	b.sess, err = resizecache.NewSessionWith(resizecache.SessionOptions{Workers: workers, Store: b.h.wrapStore(disk, true)})
	b.rng = newRNG(b.seed, 2)
	return err
}

func (b *localBench) measure(ctx context.Context, d time.Duration) (pass, error) {
	var p pass
	m := startMeter()
	var block []requestKind
	err := loop(d, func() (time.Duration, error) {
		if len(block) == 0 {
			block = b.nextBlock()
		}
		kind := block[0]
		block = block[1:]
		var lat time.Duration
		ok := true
		switch kind {
		case simulateRequest:
			sc := b.scenarios[b.rng.Intn(len(b.scenarios))]
			var out resizecache.Outcome
			var err error
			lat = b.h.request("resizecache", "simulate", 1, func() {
				out, err = b.sess.Simulate(sc)
			})
			ok = err == nil && withoutStats(out) == b.cold[scenarioID(sc)]
		case planRequest:
			sub := b.subPlan()
			var results []resizecache.Result
			var err error
			lat = b.h.request("resizecache", "plan", len(sub), func() {
				results, err = runPlan(ctx, b.sess, sub)
			})
			ok = err == nil && matches(results, b.cold)
		case figureRequest:
			i := b.rng.Intn(len(figureRequests))
			var v any
			var err error
			lat = b.h.request("figures", "render", 0, func() {
				v, err = figureRequests[i].run(ctx, b.sess, b.sc.figOpts())
			})
			data, merr := json.Marshal(v)
			ok = err == nil && merr == nil && bytes.Equal(data, b.figs[i])
		}
		p.add(lat)
		p.attempted++
		if !ok {
			p.failed++
		}
		return lat, nil
	})
	m.stop(&p)
	return p, err
}

type requestKind int

const (
	simulateRequest requestKind = iota
	planRequest
	figureRequest
)

// requestMix is one block of replay-local requests: 80% Simulate, 15%
// sub-plan Run, 5% figure render. Each block runs in a seeded order, so
// every run asks for exactly this mix.
var requestMix = func() []requestKind {
	mix := make([]requestKind, 20)
	for i := 16; i < 19; i++ {
		mix[i] = planRequest
	}
	mix[19] = figureRequest
	return mix
}()

func (b *localBench) nextBlock() []requestKind {
	block := append([]requestKind(nil), requestMix...)
	b.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// subPlan draws 2–maxSubPlan distinct grid scenarios.
func (b *localBench) subPlan() []resizecache.Scenario {
	k := 2 + b.rng.Intn(b.sc.maxSubPlan-1)
	sub := make([]resizecache.Scenario, 0, k)
	for _, i := range b.rng.Perm(len(b.scenarios))[:min(k, len(b.scenarios))] {
		sub = append(sub, b.scenarios[i])
	}
	return sub
}

// runPlan builds a plan and drains its stream.
func runPlan(ctx context.Context, s resizecache.Executor, scenarios []resizecache.Scenario) ([]resizecache.Result, error) {
	plan, err := resizecache.PlanOf(scenarios...)
	if err != nil {
		return nil, err
	}
	var results []resizecache.Result
	for r := range s.Run(ctx, plan) {
		results = append(results, r)
	}
	return results, nil
}

// matches reports whether every result equals the cold outcome of its
// scenario.
func matches(results []resizecache.Result, cold map[string]resizecache.Outcome) bool {
	for _, r := range results {
		if r.Err != nil || withoutStats(r.Outcome) != cold[scenarioID(r.Scenario)] {
			return false
		}
	}
	return len(results) > 0
}

func (b *localBench) stats() runner.Stats     { return b.sess.Stats() }
func (b *localBench) setupChecks() (int, int) { return b.checked, b.wrong }
func (b *localBench) facts() map[string]float64 {
	return map[string]float64{"runner.disk_open_s": b.openS}
}

func (b *localBench) close() error {
	if b.dir == "" {
		return nil
	}
	return os.RemoveAll(b.dir)
}

// ---------------------------------------------------------------------
// replay-remote
// ---------------------------------------------------------------------

// remoteBench runs an in-process simd daemon on a unix socket, backed by
// a MemStore that set-up fills through one cold remote plan. Two
// closed-loop clients on two connections then contend: client A submits
// warm 1–8-scenario plans drawn from a Zipf(1.1) popularity over the
// grid; client B issues NetStore operations, three lookups to one
// re-record, over keys captured during set-up.
type remoteBench struct {
	sc   scale
	want *sweepOracle
	seed uint64
	h    *hooks

	dir, addr      string
	srv            *simd.Server
	stopServe      context.CancelFunc
	served         chan error
	capture        *captureStore
	scenarios      []resizecache.Scenario
	cold           map[string]resizecache.Outcome
	checked, wrong int

	a    *resizecache.RemoteSession
	ns   *runner.NetStore
	ping *simdclient.Conn

	rngA, rngB *rand.Rand
	zipf       *rand.Zipf
	rank       []int
	netErrs    uint64
	trips      uint64
}

func (b *remoteBench) prepare(ctx context.Context) error {
	g := b.sc.grid(false)
	if err := b.want.check(g); err != nil {
		return err
	}
	var err error
	if b.dir, err = scratchDir("replay-remote-"); err != nil {
		return err
	}
	sock := filepath.Join(b.dir, "simd.sock")
	b.addr = "unix:" + sock
	b.capture = &captureStore{Store: runner.NewMemStore(), on: true}
	if b.srv, err = simd.New(simd.Options{Workers: workers, Store: b.h.wrapStore(b.capture, false)}); err != nil {
		return err
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	serveCtx, stop := context.WithCancel(context.Background())
	b.stopServe, b.served = stop, make(chan error, 1)
	go func() { b.served <- b.srv.Serve(serveCtx, b.h.wrapListener(ln)) }()

	a, err := resizecache.Dial(b.addr)
	if err != nil {
		return err
	}
	defer a.Close()
	plan, err := g.Expand()
	if err != nil {
		return err
	}
	b.scenarios = plan.Scenarios()
	results, err := resizecache.Collect(a.Run(ctx, plan))
	if err != nil {
		return err
	}
	b.cold, b.wrong = coldOutcomes(results, b.want)
	b.checked = len(results)
	b.capture.stop()
	if len(b.capture.keys) == 0 {
		return errors.New("set-up recorded no store keys")
	}
	return nil
}

func (b *remoteBench) reset(context.Context) error {
	b.closeClients()
	var err error
	if b.a, err = resizecache.Dial(b.addr); err != nil {
		return err
	}
	if b.ns, err = runner.OpenNetStore(b.addr); err != nil {
		return err
	}
	if b.h != nil {
		if b.ping, err = simdclient.Dial(b.addr); err != nil {
			return err
		}
	}
	b.rngA, b.rngB = newRNG(b.seed, 3), newRNG(b.seed, 4)
	b.zipf = rand.NewZipf(b.rngA, 1.1, 1, uint64(len(b.scenarios)-1))
	// Popularity is fixed and only the draws are seeded: a seed that made
	// an expensive both-caches scenario the most popular would change the
	// workload, not sample it.
	b.rank = rand.New(rand.NewSource(popularitySeed)).Perm(len(b.scenarios))
	return nil
}

func (b *remoteBench) measure(ctx context.Context, d time.Duration) (pass, error) {
	var pa, pb pass
	errs0, trips0 := b.netCounts()
	m := startMeter()
	// Client B paces itself on A: one batch of opsPerPlan store
	// operations per plan A completes, so every plan carries the same
	// store traffic however the two clients get scheduled.
	var plans atomic.Int64
	wake := make(chan struct{}, 1)
	done := make(chan struct{})
	var errA error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		errA = loop(d, func() (time.Duration, error) {
			lat, err := b.clientA(ctx, &pa)
			plans.Add(1)
			select {
			case wake <- struct{}{}:
			default:
			}
			return lat, err
		})
	}()
	go func() {
		defer wg.Done()
		op := 0
		for batch := int64(0); ; batch++ {
			for plans.Load() <= batch {
				select {
				case <-done:
					return
				case <-wake:
				}
			}
			select {
			case <-done:
				return
			default:
			}
			for k := 0; k < opsPerPlan; k++ {
				b.clientB(op, &pb)
				op++
			}
		}
	}()
	wg.Wait()
	m.stop(&pa)
	errs, trips := b.netCounts()
	b.netErrs, b.trips = errs-errs0, trips-trips0
	pa.attempted += pb.attempted
	pa.failed += pb.failed
	return pa, errA
}

// popularitySeed fixes which grid scenarios client A asks for most.
const popularitySeed = 11

// opsPerPlan is client B's store operations per client-A plan: six
// lookups and two re-records.
const opsPerPlan = 8

// clientA submits one warm plan and checks it; while traced, it pings
// the daemon every pingEvery plans on a separate connection.
func (b *remoteBench) clientA(ctx context.Context, p *pass) (time.Duration, error) {
	sub := make([]resizecache.Scenario, 1+b.rngA.Intn(b.sc.maxSubPlan))
	for i := range sub {
		sub[i] = b.scenarios[b.rank[b.zipf.Uint64()]]
	}
	var results []resizecache.Result
	var err error
	lat := b.h.request("resizecache", "plan", len(sub), func() {
		results, err = runPlan(ctx, b.a, sub)
	})
	p.add(lat)
	p.attempted++
	if err != nil || !matches(results, b.cold) {
		p.failed++
	}
	if rec := b.h.recorder(); rec != nil && len(p.lat)%b.sc.pingEvery == 0 {
		t0 := time.Now()
		if err := b.ping.Ping(ctx); err != nil {
			p.failed++
		}
		rec.timed(span{name: "wire.ping", layer: "wire", kind: "ping", lane: laneClient, id: rec.nextID.Add(1)}, t0)
	}
	return lat, nil
}

// clientB runs one store operation: every fourth re-records a captured
// result, the rest look one up and check it.
func (b *remoteBench) clientB(op int, p *pass) {
	i := b.rngB.Intn(len(b.capture.keys))
	k := b.capture.keys[i]
	rec := b.h.recorder()
	t0 := time.Now()
	p.attempted++
	if op%4 == 3 {
		_, errs0 := b.ns.RemoteCounts()
		b.ns.Record(k, b.capture.vals[i])
		if _, errs := b.ns.RemoteCounts(); errs != errs0 {
			p.failed++
		}
		if rec != nil {
			rec.timed(span{name: "runner.net_record", layer: "runner", kind: "net_record", lane: laneB, id: rec.nextID.Add(1)}, t0)
		}
		return
	}
	v, ok := b.ns.Lookup(k)
	if rec != nil {
		rec.timed(span{name: "runner.net_lookup", layer: "runner", kind: "net_lookup", lane: laneB, id: rec.nextID.Add(1), hit: ok}, t0)
	}
	data, err := json.Marshal(v)
	if !ok || err != nil || !bytes.Equal(data, b.capture.data[i]) {
		p.failed++
	}
}

func (b *remoteBench) netCounts() (errs, trips uint64) {
	_, errs = b.ns.RemoteCounts()
	return errs, b.ns.BreakerTrips()
}

func (b *remoteBench) stats() runner.Stats     { return b.srv.Stats() }
func (b *remoteBench) setupChecks() (int, int) { return b.checked, b.wrong }
func (b *remoteBench) facts() map[string]float64 {
	return map[string]float64{"runner.remote_errors": float64(b.netErrs), "runner.breaker_trips": float64(b.trips)}
}

func (b *remoteBench) closeClients() {
	if b.a != nil {
		b.a.Close()
	}
	if b.ns != nil {
		b.ns.Close()
	}
	if b.ping != nil {
		b.ping.Close()
	}
}

// close disconnects the clients, drains the daemon, and removes the
// socket directory.
func (b *remoteBench) close() error {
	b.closeClients()
	var err error
	if b.stopServe != nil {
		b.stopServe()
		err = <-b.served
	}
	if b.dir != "" {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// captureStore remembers the results the daemon records during set-up,
// so client B replays real keys and can check what it reads back.
type captureStore struct {
	runner.Store
	mu   sync.Mutex
	on   bool
	keys []sim.Key
	vals []runner.StoredResult
	data [][]byte // vals as JSON
}

func (c *captureStore) Record(k sim.Key, v runner.StoredResult) {
	c.Store.Record(k, v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.on {
		c.keys = append(c.keys, k)
		c.vals = append(c.vals, v)
	}
}

// stop ends the capture and orders the captured results by key, so the
// seeded draws pick the same keys whatever order set-up recorded them in.
func (c *captureStore) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.on = false
	idx := make([]int, len(c.keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return bytes.Compare(c.keys[idx[i]][:], c.keys[idx[j]][:]) < 0 })
	keys := make([]sim.Key, len(idx))
	vals := make([]runner.StoredResult, len(idx))
	c.data = make([][]byte, len(idx))
	for i, j := range idx {
		keys[i], vals[i] = c.keys[j], c.vals[j]
		c.data[i], _ = json.Marshal(vals[i]) // plain data; cannot fail
	}
	c.keys, c.vals = keys, vals
}
