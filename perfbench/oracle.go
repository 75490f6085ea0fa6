package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"resizecache"
	"resizecache/internal/runner"
)

// The output oracle pins every scenario outcome the sweeps produce. The
// simulator is deterministic and a gang member, a checkpoint-resumed
// run, a warm replay and a remote run must each equal a cold local run,
// so an outcome that differs from the oracle is a wrong answer however
// the plan was ordered, ganged or served. -update regenerates it.

//go:embed testdata/oracle.json
var oracleJSON []byte

// oracleVersion tags the oracle's schema and digest recipe.
const oracleVersion = 1

type oracle struct {
	Version  int         `json:"version"`
	Detailed sweepOracle `json:"detailed"`
	Sampled  sweepOracle `json:"sampled"`
}

// sweepOracle pins one grid at one budget.
type sweepOracle struct {
	Instructions uint64                   `json:"instructions"`
	Sampling     resizecache.SamplingSpec `json:"sampling"`
	// Outcomes maps scenarioID to outcomeDigest.
	Outcomes map[string]string `json:"outcomes"`
	// PlanDigest digests the sorted outcomes of the whole grid.
	PlanDigest string `json:"plan_digest"`
	// FullDetailEDP holds, for a sampled grid, each scenario's
	// EDPReductionPct simulated in full detail at the same budget: the
	// reference sampled_edp_err_pp is measured against.
	FullDetailEDP map[string]float64 `json:"full_detail_edp_reduction_pct,omitempty"`
}

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("decode oracle: %w", err)
	}
	if o.Version != oracleVersion {
		return nil, fmt.Errorf("oracle version %d, want %d; run with -update", o.Version, oracleVersion)
	}
	return &o, nil
}

// check reports whether the oracle was recorded for grid g.
func (o *sweepOracle) check(g resizecache.Grid) error {
	if o.Instructions != g.Instructions || o.Sampling != g.Sampling || len(o.Outcomes) == 0 {
		return fmt.Errorf("oracle recorded at %d instructions, sampling %+v; the benchmark runs %d, %+v; run with -update",
			o.Instructions, o.Sampling, g.Instructions, g.Sampling)
	}
	return nil
}

// scenarioID names a grid scenario by the axes the benchmark's grids
// vary.
func scenarioID(sc resizecache.Scenario) string {
	engine := resizecache.OutOfOrderEngine
	if sc.InOrder {
		engine = resizecache.InOrderEngine
	}
	return fmt.Sprintf("%s/%v/%v/%v/%v/%d-way", sc.Benchmark, sc.Organization, sc.Strategy, sc.Sides, engine, sc.Assoc)
}

// withoutStats returns o without its runner-activity delta, which
// legitimately differs between a cold run and a replay.
func withoutStats(o resizecache.Outcome) resizecache.Outcome {
	o.Stats = runner.Stats{}
	return o
}

// outcomeDigest fingerprints an outcome's every simulated value. JSON
// encodes floats in their shortest round-tripping form, so equal digests
// mean bit-identical outcomes.
func outcomeDigest(o resizecache.Outcome) string {
	data, err := json.Marshal(withoutStats(o))
	if err != nil {
		panic(fmt.Sprintf("encode outcome: %v", err)) // plain data; cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// planDigest digests a scenarioID → outcomeDigest map in sorted order.
func planDigest(outcomes map[string]string) string {
	ids := make([]string, 0, len(outcomes))
	for id := range outcomes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s=%s\n", id, outcomes[id])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// runGrid runs g cold on a fresh two-worker session and returns each
// scenario's outcome by scenarioID.
func runGrid(ctx context.Context, g resizecache.Grid) (map[string]resizecache.Outcome, error) {
	plan, err := g.Expand()
	if err != nil {
		return nil, err
	}
	s, err := resizecache.NewSessionWith(resizecache.SessionOptions{Workers: workers, Store: runner.NewMemStore()})
	if err != nil {
		return nil, err
	}
	results, err := resizecache.Collect(s.Run(ctx, plan))
	if err != nil {
		return nil, err
	}
	out := make(map[string]resizecache.Outcome, len(results))
	for _, r := range results {
		out[scenarioID(r.Scenario)] = r.Outcome
	}
	return out, nil
}

// recordSweep runs g and pins its outcomes. With fullDetail set (a
// sampled grid), it also runs g in full detail for the error reference.
func recordSweep(ctx context.Context, g resizecache.Grid, fullDetail bool) (sweepOracle, error) {
	outs, err := runGrid(ctx, g)
	if err != nil {
		return sweepOracle{}, err
	}
	so := sweepOracle{Instructions: g.Instructions, Sampling: g.Sampling, Outcomes: map[string]string{}}
	for id, o := range outs {
		so.Outcomes[id] = outcomeDigest(o)
	}
	so.PlanDigest = planDigest(so.Outcomes)
	if fullDetail {
		full := g
		full.Sampling = resizecache.SamplingSpec{}
		ref, err := runGrid(ctx, full)
		if err != nil {
			return sweepOracle{}, err
		}
		so.FullDetailEDP = map[string]float64{}
		for id, o := range ref {
			so.FullDetailEDP[id] = o.EDPReductionPct
		}
	}
	return so, nil
}

// recordOracle builds the oracle for a scale.
func recordOracle(ctx context.Context, sc scale) (*oracle, error) {
	det, err := recordSweep(ctx, sc.grid(false), false)
	if err != nil {
		return nil, fmt.Errorf("detailed grid: %w", err)
	}
	smp, err := recordSweep(ctx, sc.grid(true), true)
	if err != nil {
		return nil, fmt.Errorf("sampled grid: %w", err)
	}
	return &oracle{Version: oracleVersion, Detailed: det, Sampled: smp}, nil
}

// writeOracle regenerates testdata/oracle.json beside this source file.
func writeOracle(ctx context.Context) (string, error) {
	o, err := recordOracle(ctx, fullScale)
	if err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return "", err
	}
	_, file, _, ok := runtime.Caller(0)
	if !ok || !strings.HasSuffix(file, ".go") {
		return "", fmt.Errorf("cannot locate the benchmark's source directory")
	}
	path := filepath.Join(filepath.Dir(file), "testdata", "oracle.json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
