package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resizecache/internal/core"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/stats"
)

// pickBest selects the minimum-EDP candidate from a sweep batch whose
// first element is the baseline: the winner rule Sweep.Best applies as
// the results arrive, here over the whole collected slice.
func pickBest(res []sim.Result) int {
	best := 1
	for i := 2; i < len(res); i++ {
		if res[i].EDP.Product() < res[best].EDP.Product() {
			best = i
		}
	}
	return best
}

// reduceSweep is a dynamic sweep's batch (baseline first) and a stub
// runner factory whose gang entry point answers batch config i with a
// Result whose EDP product is prod(i), failing the configs in fail.
type reduceSweep struct {
	sw   Sweep
	b    *coldBatch
	at   map[sim.Key]int // fingerprint → batch index
	wait time.Duration   // how long each stubbed gang takes

	calls, active atomic.Int32
}

func newReduceSweep(t *testing.T) *reduceSweep {
	t.Helper()
	opts := DefaultOptions()
	opts.Instructions = 10_000
	sw, err := NewSweepSpec("gcc", DSide, core.SelectiveSets, 2, true, opts).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rs := &reduceSweep{sw: sw, b: sw.coldBatch(), at: make(map[sim.Key]int)}
	for i, j := range rs.b.jobs {
		rs.at[j.Key] = i
	}
	if len(rs.b.jobs) < 3*8 {
		t.Fatalf("batch of %d configs is too small to make several gangs", len(rs.b.jobs))
	}
	return rs
}

func (rs *reduceSweep) runner(prod func(i int) uint64, fail map[int]bool) *runner.Runner {
	return runner.New(runner.Options{Workers: 2, RunGang: func(g sim.Gang) error {
		rs.calls.Add(1)
		rs.active.Add(1)
		defer rs.active.Add(-1)
		time.Sleep(rs.wait)
		for k, cfg := range g.Cfgs {
			i := rs.at[cfg.Key()]
			if fail[i] {
				return fmt.Errorf("config %d refused", i)
			}
			var res sim.Result
			res.CPU.Instructions = uint64(i) // tells the results apart
			res.EDP = stats.EDP{EnergyJ: 1, Cycles: prod(i)}
			*g.Out[k] = res
		}
		return nil
	}})
}

// TestBestReductionMatchesPickBest: Sweep.Best, which reduces its batch
// as the results arrive, chooses the winner pickBest chooses over the
// collected slice of the same batch — on ties too, where the first
// minimum by batch order wins — and keeps that winner's policy, Result
// and the baseline's Result.
func TestBestReductionMatchesPickBest(t *testing.T) {
	rs := newReduceSweep(t)
	n := len(rs.b.jobs)
	for _, tc := range []struct {
		name string
		prod func(i int) uint64
		want int // pickBest's winner, checked too
	}{
		{"distinct", func(i int) uint64 { return 1000 + uint64(i*7919%997) }, -1},
		{"all tied", func(int) uint64 { return 5 }, 1},
		{"tied minima", func(i int) uint64 { return 10 + uint64(i%3) }, 3},
		{"last is lowest", func(i int) uint64 { return uint64(2*n - i) }, n - 1},
		{"baseline lowest, tied pair last", func(i int) uint64 {
			switch {
			case i == 0:
				return 1
			case i >= n-2:
				return 2
			}
			return 3
		}, n - 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			res, err := rs.runner(tc.prod, nil).RunAll(ctx, rs.b.jobs)
			if err != nil {
				t.Fatal(err)
			}
			w := pickBest(res)
			if tc.want >= 0 && w != tc.want {
				t.Fatalf("pickBest chose %d, want %d", w, tc.want)
			}
			best, err := rs.sw.Best(ctx, rs.runner(tc.prod, nil))
			if err != nil {
				t.Fatal(err)
			}
			if got := int(best.Chosen.CPU.Instructions); got != w {
				t.Errorf("Best chose config %d, pickBest %d", got, w)
			}
			if !reflect.DeepEqual(best.Chosen, res[w]) || !reflect.DeepEqual(best.Base, res[0]) {
				t.Errorf("Best's Chosen/Base differ from the collected results %d and 0", w)
			}
			if best.Spec != rs.b.pols[w-1] || best.Desc != describe(rs.b.sched, rs.b.pols[w-1]) {
				t.Errorf("Best's policy %+v (%s), want candidate %d's %+v", best.Spec, best.Desc, w, rs.b.pols[w-1])
			}
		})
	}
}

// TestBestReductionFailsLikeRunAll: a sweep whose batch has failing
// configs returns the error of the first one by batch index — the
// baseline included — as RunAll does, and before Best returns, every
// gang its gather started has finished and no further gang starts: the
// stragglers are cancelled or waited for.
func TestBestReductionFailsLikeRunAll(t *testing.T) {
	rs := newReduceSweep(t)
	rs.wait = time.Millisecond
	prod := func(i int) uint64 { return uint64(1 + i) }
	for _, fail := range [][2]int{{0, 9}, {5, 2}, {17, 40}} {
		first := min(fail[0], fail[1])
		t.Run(fmt.Sprint(fail), func(t *testing.T) {
			ctx := context.Background()
			failing := map[int]bool{fail[0]: true, fail[1]: true}
			_, want := rs.runner(prod, failing).RunAll(ctx, rs.b.jobs)
			_, err := rs.sw.Best(ctx, rs.runner(prod, failing))
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("Best's error %v, RunAll's %v: want the same", err, want)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("config %d ", first)) ||
				!strings.Contains(err.Error(), fmt.Sprintf("config %d refused", first)) {
				t.Errorf("error %q does not name config %d, the first failing one", err, first)
			}
			if a := rs.active.Load(); a != 0 {
				t.Errorf("%d gangs still running after Best returned", a)
			}
			calls := rs.calls.Load()
			time.Sleep(20 * time.Millisecond)
			if got := rs.calls.Load(); got != calls {
				t.Errorf("%d gangs started after Best returned", got-calls)
			}
		})
	}
}

// TestBestReductionStopsAtCancellation: a cancelled context ends the
// gather with the context's error, as it ends RunAll.
func TestBestReductionStopsAtCancellation(t *testing.T) {
	rs := newReduceSweep(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rs.sw.Best(ctx, rs.runner(func(int) uint64 { return 1 }, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
