// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload in a fresh process through the public entry points — a
// resizecache.Session, the figures drivers, and an in-process simd
// daemon reached through resizecache.Dial and runner.OpenNetStore —
// checks every answer against a committed oracle, and prints each
// end-to-end metric with its unit. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload replay-local --seed 1 --seconds 15 --trace 1
//	bash perfbench/run.sh --workload replay-remote --seed 1 --seconds 15 --repeat 10
//	bash perfbench/run.sh --update
//
// -trace 1 reruns the measured phase with spans recorded at layer
// boundaries, runs the layer probes, prints the per-layer metrics
// instead of the end-to-end ones, and writes the spans as Chrome Trace
// Event JSON. The last line of standard output is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// processStart approximates the start of the process for setup_s.
var processStart = time.Now()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	runtime.GOMAXPROCS(workers)
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: sweep-cold, sweep-sampled, replay-local or replay-remote")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 15, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, layer probes, and a Chrome trace in .bench_build/")
	repeat := fs.Int("repeat", 0, "run this many fresh processes on seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
	update := fs.Bool("update", false, "regenerate testdata/oracle.json and exit")
	fs.Parse(os.Args[1:])

	ctx := context.Background()
	if *update {
		path, err := writeOracle(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	def, err := findWorkload(opts.workload)
	if err != nil {
		fatal(err)
	}
	if *repeat > 0 {
		if err := repeatRuns(opts, *repeat); err != nil {
			fatal(err)
		}
		return
	}
	o, err := loadOracle()
	if err != nil {
		fatal(err)
	}
	rep, lines, err := run(ctx, def, fullScale, o, opts)
	if err != nil {
		fatal(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload and returns its report and the human-readable
// lines that precede it.
func run(ctx context.Context, def workloadDef, sc scale, o *oracle, opts options) (report, []string, error) {
	var h *hooks
	if opts.trace {
		h = &hooks{}
	}
	b := def.make(sc, o, opts.seed, h)
	rep, lines, err := runBench(ctx, def, sc, b, h, opts)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	return rep, lines, err
}

func runBench(ctx context.Context, def workloadDef, sc scale, b bench, h *hooks, opts options) (report, []string, error) {
	if err := b.prepare(ctx); err != nil {
		return report{}, nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	// setup_s is the one-time part of set-up, measured from process start,
	// plus the median of the repeatable part.
	once := time.Since(processStart)
	var repeats []float64
	for i := 0; i < max(1, sc.setupRepeats); i++ {
		t0 := time.Now()
		if err := b.reset(ctx); err != nil {
			return report{}, nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		repeats = append(repeats, time.Since(t0).Seconds())
	}
	setupS := once.Seconds() + median(repeats)
	// Every measured pass starts from a collected heap, so set-up garbage
	// is not charged to it.
	runtime.GC()
	d := time.Duration(opts.seconds * float64(time.Second))
	attempted, failed := b.setupChecks()
	lines := []string{fmt.Sprintf("workload %s seed %d seconds %g trace %v", def.name, opts.seed, opts.seconds, opts.trace)}

	if !opts.trace {
		p, err := b.measure(ctx, d)
		if err != nil {
			return report{}, nil, err
		}
		attempted += p.attempted
		failed += p.failed
		m := endToEnd(setupS, p)
		lines = append(lines, describe(endToEndMetrics, m, len(p.lat))...)
		lines = append(lines, info(p, attempted, failed, b.facts())...)
		return newReport(endToEndMetrics, m, attempted, failed), lines, nil
	}

	// Traced run: an untraced pass, then the same requests again with
	// spans recorded, each for half the measured time.
	pu, err := b.measure(ctx, d/2)
	if err != nil {
		return report{}, nil, err
	}
	rec := newRecorder()
	h.rec.Store(rec)
	if err := b.reset(ctx); err != nil {
		return report{}, nil, err
	}
	runtime.GC()
	before := b.stats()
	pt, err := b.measure(ctx, d/2)
	if err != nil {
		return report{}, nil, err
	}
	st := b.stats().Delta(before)
	h.rec.Store(nil)
	attempted += pu.attempted + pt.attempted
	failed += pu.failed + pt.failed

	g := sc.grid(def.sampled)
	probes, budget, err := runProbes(newProbeEnv(sc.apps, g.Instructions, sc.sampling, g), sc.probeTime)
	if err != nil {
		return report{}, nil, err
	}
	spans, dropped := rec.snapshot()
	m := layerMetrics(traced{spans: spans, stats: st, h: h, untraced: pu, pass: pt,
		facts: b.facts(), probes: probes})
	out := spanFile(def.name, opts.seed)
	if err := rec.writeChrome(out); err != nil {
		return report{}, nil, err
	}
	lines = append(lines, describe(perLayerMetrics, m, 0)...)
	lines = append(lines, budget...)
	lines = append(lines, fmt.Sprintf("trace: %d spans (%d dropped) written to %s", len(spans), dropped, out))
	return newReport(perLayerMetrics, m, attempted, failed), lines, nil
}

func newReport(defs []metricDef, m map[string]float64, attempted, failed int) report {
	rep := report{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return rep
}

// describe prints metrics one per line with their units; latencies carry
// their sample count.
func describe(defs []metricDef, m map[string]float64, samples int) []string {
	var lines []string
	for _, d := range defs {
		l := fmt.Sprintf("%-36s %14.6g %s", d.name, m[d.name], d.unit)
		if samples > 0 && (d.name == "latency_p50_ms" || d.name == "latency_p99_ms") {
			l += fmt.Sprintf("  (n=%d)", samples)
		}
		lines = append(lines, l)
	}
	return lines
}

// info prints the figures that explain the end-to-end metrics but are
// not gated: simulation throughput, accuracy, and the failure share.
func info(p pass, attempted, failed int, facts map[string]float64) []string {
	var lines []string
	if p.instr > 0 {
		lines = append(lines, fmt.Sprintf("info sim_minstr_per_s %.4g (simulated or, sampled, covered instructions per host second)",
			float64(p.instr)/p.busy.Seconds()/1e6))
	}
	if v, ok := facts["sim.sampled_edp_err_pp"]; ok {
		lines = append(lines, fmt.Sprintf("info sampled_edp_err_pp %.6g (mean |EDP reduction error| vs full detail, percentage points)", v))
	}
	return append(lines, fmt.Sprintf("info failed_frac %.6g (%d of %d requests failed or were wrong)",
		ratio(float64(failed), float64(attempted)), failed, attempted))
}

// repeatRuns runs n fresh processes of one workload and prints each
// end-to-end metric's median, quartiles and spread.
func repeatRuns(opts options, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := opts.seed + uint64(i)
		cmd := exec.Command(exe, "-workload", opts.workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64), "-trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		rep, perr := lastReport(out)
		if perr != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, errors.Join(err, perr))
		}
		fmt.Printf("run %d seed %d correct %v attempted %d failed %d\n", i+1, seed, rep.Correct, rep.Attempted, rep.Failed)
		if !rep.Correct {
			return fmt.Errorf("run %d (seed %d) failed its output check", i+1, seed)
		}
		for k, v := range rep.Metrics {
			values[k] = append(values[k], v.Value)
		}
	}
	fmt.Printf("%-24s %12s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "max-min", "iqr%", "range%")
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := sorted(values[k])
		q1, med, q3 := quartiles(s)
		spread := s[len(s)-1] - s[0]
		fmt.Printf("%-24s %12.6g %12.6g %12.6g %12.6g %8.2f%% %8.2f%%\n", k, med, q1, q3, spread,
			100*ratio(q3-q1, med), 100*ratio(spread, med))
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// exclusive method.
func quartiles(s []float64) (q1, med, q3 float64) {
	at := func(p float64) float64 {
		n := len(s)
		h := p * float64(n+1)
		j := int(h)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// lastReport decodes the JSON object on the last line of a run's output.
func lastReport(out []byte) (report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return report{}, fmt.Errorf("no result line: %w", err)
	}
	return rep, nil
}
