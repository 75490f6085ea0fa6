package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"resizecache"
)

// tinyScale runs every workload end to end in a fraction of a second.
var tinyScale = scale{
	apps:          []string{"m88ksim"},
	orgs:          []resizecache.Organization{resizecache.SelectiveWays, resizecache.SelectiveSets},
	strategies:    []resizecache.Strategy{resizecache.Static, resizecache.Dynamic},
	sides:         []resizecache.Sides{resizecache.DOnly, resizecache.BothSides},
	engines:       []resizecache.Engine{resizecache.OutOfOrderEngine},
	detailedInstr: 20_000,
	sampledInstr:  40_000,
	sampling: resizecache.SamplingSpec{WarmupInstructions: 5_000, DetailedInstructions: 2_000,
		FastForwardInstructions: 3_000, SkipInstructions: 5_000},
	setupRepeats: 1,
	probeTime:    "1x",
	pingEvery:    5,
	maxSubPlan:   3,
}

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []jsonMetric            `json:"end_to_end"`
	PerLayer  []jsonMetric            `json:"per_layer"`
}

type jsonMetric struct{ Name, Unit, Better string }

func defs(ms []jsonMetric) []metricDef {
	out := make([]metricDef, len(ms))
	for i, m := range ms {
		out[i] = metricDef{m.Name, m.Unit, m.Better}
	}
	return out
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var declared, coded []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		coded = append(coded, w.name)
	}
	if !slices.Equal(declared, coded) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", declared, coded)
	}
	if !slices.Equal(defs(bj.EndToEnd), endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v,\ncode %v", bj.EndToEnd, endToEndMetrics)
	}
	if !slices.Equal(defs(bj.PerLayer), perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v,\ncode %v", bj.PerLayer, perLayerMetrics)
	}
}

// TestSmoke runs every workload untraced and traced at tiny scale: every
// declared metric is printed with its unit, the output check passes, and
// the trace parses with spans for each layer the workload declares.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	t.Chdir(t.TempDir())
	ctx := context.Background()
	o, err := recordOracle(ctx, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, lines, err := run(ctx, w, tinyScale, o,
					options{workload: w.name, seed: 1, seconds: 0.2, trace: traced})
				if err != nil {
					t.Fatalf("trace %v: %v", traced, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("trace %v: output check: correct %v, %d of %d failed", traced, rep.Correct, rep.Failed, rep.Attempted)
				}
				want := defs(bj.EndToEnd)
				if traced {
					want = defs(bj.PerLayer)
				}
				text := strings.Join(lines, "\n")
				for _, d := range want {
					if got, ok := rep.Metrics[d.name]; !ok || got.Unit != d.unit {
						t.Errorf("trace %v: metric %s missing or not in %s: %+v", traced, d.name, d.unit, got)
					}
					if !strings.Contains(text, d.name) {
						t.Errorf("trace %v: %s not printed", traced, d.name)
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics reported, %d declared", traced, len(rep.Metrics), len(want))
				}
				if traced {
					checkTrace(t, spanFile(w.name, 1), w.layers)
				}
			}
		})
	}
}

func checkTrace(t *testing.T, path string, layers []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string  `json:"cat"`
			Ph  string  `json:"ph"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("malformed event %+v", e)
		}
		seen[e.Cat] = true
	}
	for _, l := range layers {
		if !seen[l] {
			t.Errorf("no %s spans in the trace (saw %v)", l, seen)
		}
	}
}

// TestWrongOutputFails checks that a mismatch against the oracle counts
// as a failed request.
func TestWrongOutputFails(t *testing.T) {
	t.Chdir(t.TempDir())
	ctx := context.Background()
	o, err := recordOracle(ctx, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for id := range o.Detailed.Outcomes {
		o.Detailed.Outcomes[id] = "0000000000000000"
		break
	}
	for _, name := range []string{"sweep-cold", "replay-local"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := run(ctx, w, tinyScale, o, options{workload: name, seed: 1, seconds: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted oracle passed: %+v", name, rep)
		}
	}
}

// BenchmarkProbes runs the layer probes at full scale under go test.
func BenchmarkProbes(b *testing.B) {
	g := fullScale.grid(false)
	e := newProbeEnv(fullScale.apps, g.Instructions, fullScale.sampling, g)
	for _, p := range e.probes() {
		b.Run(p.name, p.f)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		if q1, m, q3 := quartiles(c.v); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
