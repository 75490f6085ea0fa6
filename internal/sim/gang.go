package sim

import (
	"fmt"

	"resizecache/internal/bpred"
	"resizecache/internal/cpu"
	"resizecache/internal/workload"
)

// gangChunk bounds how many machines one engine pass starts with.
// Chunking keeps a huge gang's per-instruction member loop within a
// working set the data caches like. Each chunk reads the stream from
// the start on its own: a replay of the memoized recording when there
// is one, or else its own generator, since generation is deterministic.
// Runner-built gangs start with at most the configured gang size
// (default 8) of machines, and forks grow a pass past gangChunk without
// chunking it, so only a direct RunGang call over more than gangChunk
// share groups chunks.
const gangChunk = 32

// RunGang executes N simulations in one workload+engine pass. All
// configs must share a simulation front-end — equal FrontKeys: same
// benchmark, instruction budget, engine kind, pipeline shape, and
// sampling schedule — because the gang evaluates the shared functional
// stream once and fans each event out to every member's private memory
// system. Cache geometries, resizing organizations and policies,
// hierarchy depth, MSHRs, and energy models may all differ per member.
// Members that differ only in the thresholds of their one dynamic
// policy (equal ShareKeys) share one machine until their controllers
// disagree. Where followers split from their leader at a boundary of
// the dynamic cache, L1 or shared, the machine forks there, in the same
// pass, and each new machine runs on from the boundary, so the gang
// builds one machine per distinct decision trajectory and reads the
// stream once per chunk of gangChunk share groups.
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
	return runGangOver(cfgs, prof, cs, streams, nil)
}

// runGangOver runs a validated gang over prof's stream. Configs with
// equal ShareKeys form one group that runs on one machine, led by its
// first config: the leader's dynamic policy carries the others as
// followers, and a follower still attached when the run ends gets a
// copy of the leader's Result. Followers that split from their leader
// fork a machine at the boundary, in the same pass (shareRun.Boundary),
// so each chunk of gangChunk groups is exactly one engine pass. tr,
// when non-nil, records the passes, forks and snapshots (tests).
func runGangOver(cfgs []Config, prof *workload.Profile, cs CheckpointStore, streams *Streams, tr *gangTrace) ([]Result, WarmupStats, error) {
	var ws WarmupStats
	out := make([]Result, len(cfgs))
	chunkWS := &ws
	groups := shareGroups(cfgs)
	for lo := 0; lo < len(groups); lo += gangChunk {
		if err := runChunk(cfgs, groups[lo:min(lo+gangChunk, len(groups))], prof, cs, streams, chunkWS, out, tr); err != nil {
			return nil, ws, err
		}
		// The first chunk's warmup populates the checkpoint store (when
		// one is provided), so later chunks restore it instead of
		// re-stepping the prefix; their stats are the gang's internal
		// traffic, not the caller's.
		chunkWS = new(WarmupStats)
	}
	return out, ws, nil
}

// gangTrace records what runGangOver did, for tests: one entry per
// engine pass with the machines it ended with, every fork, and how
// often the machines' fork hooks were armed, took a snapshot and
// crossed an armed boundary.
type gangTrace struct {
	passMachines                []int
	forks                       []forkEvent
	arms, snapshots, boundaries int
}

// forkEvent is one fork: the boundary at which followers left a
// machine, how many new machines they formed, and the machine's fork
// generation (0 for a machine a pass started with).
type forkEvent struct {
	boundary, machines, gen int
}

// shareGroups partitions cfgs' indices by ShareKey, in order of first
// appearance, each group ascending.
func shareGroups(cfgs []Config) [][]int {
	var groups [][]int
	at := make(map[Key]int)
	for i := range cfgs {
		k := cfgs[i].ShareKey()
		n, ok := at[k]
		if !ok {
			n = len(groups)
			at[k] = n
			groups = append(groups, nil)
		}
		groups[n] = append(groups[n], i)
	}
	return groups
}

// runChunk runs one engine pass over groups of cfgs' indices, leader
// first, writing every member's Result to out: a follower that split
// from its machine leads or follows a fork of it by the pass's end (see
// shareRun.Boundary).
func runChunk(cfgs []Config, groups [][]int, prof *workload.Profile, cs CheckpointStore, streams *Streams, ws *WarmupStats, out []Result, tr *gangTrace) error {
	p := &pass{cfgs: cfgs, trace: tr}
	members := make([]cpu.GangMember, len(groups))
	for j, g := range groups {
		sr, err := p.addRun(g)
		if err != nil {
			return err
		}
		members[j] = sr.member()
	}

	cfg0 := cfgs[groups[0][0]]
	eng, err := newEngine(cfg0, members)
	if err != nil {
		return err
	}
	p.eng = eng
	for _, sr := range p.runs {
		sr.hook()
	}
	var res []Result
	st := streams.stream(prof, cfg0.Instructions, cfg0.Sampling)
	if cfg0.Sampling.Enabled() {
		res, err = p.runSampled(prof, st, cs, ws)
	} else {
		rs := eng.RunWindow(st.src, cfg0.Instructions, nil)
		res = make([]Result, len(rs))
		for j, r := range rs {
			sr := p.runs[j]
			res[j] = sr.m.finish(cfgs[sr.lead], r)
		}
	}
	p.release()
	if err != nil {
		return err
	}
	if tr != nil {
		tr.passMachines = append(tr.passMachines, len(p.runs))
	}
	for j, sr := range p.runs {
		out[sr.lead] = res[j]
		for _, f := range sr.follow {
			out[f.i] = res[j].clone()
		}
	}
	return nil
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
