package sim

import (
	"fmt"

	"resizecache/internal/bpred"
	"resizecache/internal/cpu"
	"resizecache/internal/workload"
)

// gangChunk bounds how many machines one engine pass drives. Chunking
// keeps a huge gang's per-instruction member loop within a working set
// the data caches like. Each chunk reads the stream from the start on
// its own: a replay of the memoized recording when there is one, or
// else its own generator, since generation is deterministic.
// Runner-built gangs stay at or below the configured gang size (default
// 8) and never chunk.
const gangChunk = 32

// RunGang executes N simulations in one workload+engine pass. All
// configs must share a simulation front-end — equal FrontKeys: same
// benchmark, instruction budget, engine kind, pipeline shape, and
// sampling schedule — because the gang evaluates the shared functional
// stream once and fans each event out to every member's private memory
// system. Cache geometries, resizing organizations and policies,
// hierarchy depth, MSHRs, and energy models may all differ per member.
//
// Each member's Result is bit-identical to Run on the same config
// (TestGangMatchesGolden pins this against the golden fixtures); a gang
// of one degenerates to exactly Run.
func RunGang(cfgs []Config) ([]Result, error) {
	out, _, err := RunGangWithCheckpoints(cfgs, nil)
	return out, err
}

// RunGangWithCheckpoints is RunGang against an optional warmup
// checkpoint store (nil behaves exactly like RunGang); see
// RunWithCheckpoints for the checkpoint semantics. A sampled gang has
// one shared warmup prefix, so one WarmupStats covers every member.
func RunGangWithCheckpoints(cfgs []Config, cs CheckpointStore) ([]Result, WarmupStats, error) {
	return runGang(cfgs, cs, nil)
}

// runGang is RunGangWithCheckpoints with the detailed path's streams
// drawn from streams (live generators when nil).
func runGang(cfgs []Config, cs CheckpointStore, streams *Streams) ([]Result, WarmupStats, error) {
	if len(cfgs) == 0 {
		return nil, WarmupStats{}, nil
	}
	prof, err := validated(cfgs[0])
	if err != nil {
		return nil, WarmupStats{}, fmt.Errorf("sim: gang member 0: %w", err)
	}
	front := cfgs[0].FrontKey()
	for i, cfg := range cfgs[1:] {
		if _, err := validated(cfg); err != nil {
			return nil, WarmupStats{}, fmt.Errorf("sim: gang member %d: %w", i+1, err)
		}
		if cfg.FrontKey() != front {
			return nil, WarmupStats{}, fmt.Errorf(
				"sim: gang member %d front-end mismatch: %s/%d instr/%s/%+v/%+v vs member 0 %s/%d instr/%s/%+v/%+v",
				i+1, cfg.Benchmark, cfg.Instructions, cfg.Engine, cfg.CPU, cfg.Sampling,
				cfgs[0].Benchmark, cfgs[0].Instructions, cfgs[0].Engine, cfgs[0].CPU, cfgs[0].Sampling)
		}
	}

	machines := make([]*machine, len(cfgs))
	members := make([]cpu.GangMember, len(cfgs))
	for i, cfg := range cfgs {
		m, err := buildMachine(cfg)
		if err != nil {
			return nil, WarmupStats{}, fmt.Errorf("sim: gang member %d: %w", i, err)
		}
		machines[i] = m
		members[i] = cpu.GangMember{IC: m.ic.level, DC: m.dc.level}
	}

	if cfgs[0].Sampling.Enabled() {
		return runSampledGang(cfgs, prof, machines, members, cs)
	}

	cfg0 := cfgs[0]
	out := make([]Result, len(cfgs))
	for lo := 0; lo < len(cfgs); lo += gangChunk {
		hi := min(lo+gangChunk, len(cfgs))
		src := streams.source(prof, cfg0.Instructions)
		var results []cpu.Result
		if cfg0.Engine == InOrder {
			results, err = cpu.RunGangInOrder(cfg0.CPU, bpred.NewDefault(), members[lo:hi], src, cfg0.Instructions)
		} else {
			results, err = cpu.RunGangOutOfOrder(cfg0.CPU, bpred.NewDefault(), members[lo:hi], src, cfg0.Instructions)
		}
		if err != nil {
			return nil, WarmupStats{}, err
		}
		for i, r := range results {
			out[lo+i] = machines[lo+i].finish(cfgs[lo+i], r)
		}
	}
	return out, WarmupStats{}, nil
}

// gangEngine is the window-capable gang surface runSampledGang drives;
// cpu.GangOutOfOrder and cpu.GangInOrder both implement it.
type gangEngine interface {
	RunWindow(src workload.Source, maxInstr uint64, base []uint64) []cpu.Result
	FastForward(src workload.Source, maxInstr uint64) uint64
	frontEndHolder
}

// runSampledGang is the sampled counterpart of the detailed gang path
// above. Every chunk drives its own live generator, never a recording:
// an owned generator is what lets each chunk Skip the inter-window gaps
// in O(1). Chunk 0's warmup populates the checkpoint store (when one is
// provided), so later chunks restore it instead of re-stepping the
// prefix.
func runSampledGang(cfgs []Config, prof *workload.Profile, machines []*machine, members []cpu.GangMember, cs CheckpointStore) ([]Result, WarmupStats, error) {
	cfg0 := cfgs[0]
	spec := cfg0.Sampling
	var ws WarmupStats

	out := make([]Result, len(cfgs))
	chunks := (len(cfgs) + gangChunk - 1) / gangChunk
	for c := 0; c < chunks; c++ {
		lo := c * gangChunk
		hi := min(lo+gangChunk, len(cfgs))
		var (
			eng gangEngine
			err error
		)
		if cfg0.Engine == InOrder {
			eng, err = cpu.NewGangInOrder(cfg0.CPU, bpred.NewDefault(), members[lo:hi])
		} else {
			eng, err = cpu.NewGangOutOfOrder(cfg0.CPU, bpred.NewDefault(), members[lo:hi])
		}
		if err != nil {
			return nil, ws, err
		}

		gen := workload.NewGenerator(prof)
		var consumed uint64
		if c == 0 {
			consumed = warmupWithCheckpoint(cfg0, eng, gen, cs, &ws)
		} else {
			// Later chunks warm through the store chunk 0 just populated
			// (or re-step the prefix identically when there is none);
			// their stats are the gang's internal traffic, not the
			// caller's.
			var chunkWS WarmupStats
			consumed = warmupWithCheckpoint(cfg0, eng, gen, cs, &chunkWS)
		}

		accs := make([]windowAccum, hi-lo)
		for i := range accs {
			accs[i].m = machines[lo+i]
		}
		base := make([]uint64, hi-lo)
		total := consumed
		for total < cfg0.Instructions {
			rs := eng.RunWindow(gen, min(spec.DetailedInstructions, cfg0.Instructions-total), base)
			if rs[0].Instructions == 0 {
				break // stream exhausted
			}
			total += rs[0].Instructions
			for i := range accs {
				accs[i].observe(cfgs[lo+i], rs[i])
				base[i] = rs[i].Cycles
			}
			if total >= cfg0.Instructions {
				break
			}
			if sk := min(spec.SkipInstructions, cfg0.Instructions-total); sk > 0 {
				n := gen.Skip(sk)
				total += n
				if n < sk {
					break // stream exhausted
				}
			}
			ff := min(spec.FastForwardInstructions, cfg0.Instructions-total)
			n := eng.FastForward(gen, ff)
			total += n
			if n < ff {
				break // stream exhausted
			}
		}
		for i := range accs {
			res, err := accs[i].finish(cfgs[lo+i], total, consumed)
			if err != nil {
				return nil, ws, err
			}
			out[lo+i] = res
		}
	}
	return out, ws, nil
}
