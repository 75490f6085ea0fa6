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
// Every simulation runs here: Run is a gang of one. Each member's Result
// is bit-identical to Run on the same config, whatever the member order
// or chunking (TestGangMatchesGolden and TestGangChunked pin this; the
// golden fixtures pin Run). An error that belongs to one member names
// it, unless the gang has only that member.
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

// runGang is RunGangWithCheckpoints with every chunk's stream drawn
// from streams (live generators when nil).
func runGang(cfgs []Config, cs CheckpointStore, streams *Streams) ([]Result, WarmupStats, error) {
	if len(cfgs) == 0 {
		return nil, WarmupStats{}, nil
	}
	prof, err := validated(cfgs[0])
	if err != nil {
		return nil, WarmupStats{}, memberErr(cfgs, 0, err)
	}
	front := cfgs[0].FrontKey()
	for i, cfg := range cfgs[1:] {
		if _, err := validated(cfg); err != nil {
			return nil, WarmupStats{}, memberErr(cfgs, i+1, err)
		}
		if cfg.FrontKey() != front {
			return nil, WarmupStats{}, fmt.Errorf(
				"sim: gang member %d front-end mismatch: %s/%d instr/%s/%+v/%+v vs member 0 %s/%d instr/%s/%+v/%+v",
				i+1, cfg.Benchmark, cfg.Instructions, cfg.Engine, cfg.CPU, cfg.Sampling,
				cfgs[0].Benchmark, cfgs[0].Instructions, cfgs[0].Engine, cfgs[0].CPU, cfgs[0].Sampling)
		}
	}
	return runGangOver(cfgs, prof, cs, streams)
}

// runGangOver runs a validated gang over prof's stream.
func runGangOver(cfgs []Config, prof *workload.Profile, cs CheckpointStore, streams *Streams) ([]Result, WarmupStats, error) {
	machines := make([]*machine, len(cfgs))
	members := make([]cpu.GangMember, len(cfgs))
	for i, cfg := range cfgs {
		m, err := buildMachine(cfg)
		if err != nil {
			return nil, WarmupStats{}, memberErr(cfgs, i, err)
		}
		machines[i] = m
		members[i] = cpu.GangMember{IC: m.ic.level, DC: m.dc.level}
	}

	cfg0 := cfgs[0]
	var ws WarmupStats
	out := make([]Result, len(cfgs))
	for lo := 0; lo < len(cfgs); lo += gangChunk {
		hi := min(lo+gangChunk, len(cfgs))
		eng, err := newEngine(cfg0, members[lo:hi])
		if err != nil {
			return nil, ws, err
		}
		st := streams.stream(prof, cfg0.Instructions, cfg0.Sampling)
		if cfg0.Sampling.Enabled() {
			// Chunk 0's warmup populates the checkpoint store (when one
			// is provided), so later chunks restore it instead of
			// re-stepping the prefix; their stats are the gang's internal
			// traffic, not the caller's.
			chunkWS := &ws
			if lo > 0 {
				chunkWS = new(WarmupStats)
			}
			if err := runSampled(cfgs[lo:hi], prof, st, machines[lo:hi], eng, cs, chunkWS, out[lo:hi]); err != nil {
				return nil, ws, err
			}
			continue
		}
		rs := eng.RunWindow(st.src, cfg0.Instructions, nil)
		for i, r := range rs {
			out[lo+i] = machines[lo+i].finish(cfgs[lo+i], r)
		}
	}
	return out, ws, nil
}

// memberErr attributes a gang's failure to member i. A gang of one is
// Run, whose errors name no member.
func memberErr(cfgs []Config, i int, err error) error {
	if len(cfgs) == 1 {
		return err
	}
	return fmt.Errorf("sim: gang member %d: %w", i, err)
}

// newEngine builds the config's timing model over members.
func newEngine(cfg Config, members []cpu.GangMember) (*cpu.Gang, error) {
	if cfg.Engine == InOrder {
		return cpu.NewGangInOrder(cfg.CPU, bpred.NewDefault(), members)
	}
	return cpu.NewGangOutOfOrder(cfg.CPU, bpred.NewDefault(), members)
}
