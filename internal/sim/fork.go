package sim

import (
	"fmt"
	"slices"

	"resizecache/internal/core"
	"resizecache/internal/cpu"
	"resizecache/internal/workload"
)

// pass is one engine pass over the stream: its machines in engine
// member order, the share groups it started with first and then the
// forks it grew from them. A sampled pass also keeps each machine's
// detailed windows, parallel to runs.
type pass struct {
	cfgs []*Config // the whole gang's configs
	out  []*Result // where each config's Result goes
	eng  *cpu.Gang
	runs []*shareRun

	// Sampled passes only (see runSampled): the stream, each machine's
	// windows, and the clock base of the window in progress.
	src  workload.SkipSource
	accs []windowAccum
	base []uint64

	trace *gangTrace // nil outside tests
}

// shareRun is one machine of a pass and the configs it answers for:
// lead, whose dynamic policy drives the machine, and the followers
// still sharing it.
type shareRun struct {
	p      *pass
	at     int // engine member index
	lead   int // index into p.cfgs
	m      *machine
	follow []follower

	// forkAt is the machine position of the dynamic cache whose
	// boundaries fork the machine (see levelAt), or -1: no followers
	// that can split.
	forkAt int
	// snap is the machine as of the start of the latest instruction that
	// may reach the armed cache: built on the first snapshot and
	// overwritten by the next, until a fork takes it over.
	snap *machine
	gen  int // forks between the pass's start and this machine
}

// follower is a config riding on another's machine, and its policy
// (nil for a config equal to the leader's).
type follower struct {
	i   int
	pol *core.DynamicPolicy
}

// addRun builds the machine for group g of the pass's configs (leader
// first) and attaches the followers to the leader's dynamic policy.
func (p *pass) addRun(g []int) (*shareRun, error) {
	cfg := p.cfgs[g[0]]
	m, err := buildMachine(*cfg)
	if err != nil {
		return nil, memberErr(len(p.cfgs), g[0], err)
	}
	sr := &shareRun{p: p, at: len(p.runs), lead: g[0], m: m, forkAt: -1}
	at := cfg.forkLevel()
	for _, i := range g[1:] {
		// A config with no dynamic policy shares only with its equals,
		// which never detach.
		f := follower{i: i}
		if at >= 0 {
			f.pol = p.cfgs[i].policyAt(at).build().(*core.DynamicPolicy)
			m.levelAt(at).r.Policy().(*core.DynamicPolicy).Follow(f.pol)
		}
		sr.follow = append(sr.follow, f)
	}
	if at >= 0 && len(g) > 1 {
		sr.forkAt = at
	}
	p.runs = append(p.runs, sr)
	return sr, nil
}

// member is the run's engine member.
func (sr *shareRun) member() cpu.GangMember {
	gm := cpu.GangMember{IC: sr.m.ic.level, DC: sr.m.dc.level}
	if sr.forkAt >= 0 {
		gm.Snapshot = sr.snapshot
	}
	return gm
}

// hook has the run's dynamic cache report where the machine may fork;
// the pass's engine must exist.
func (sr *shareRun) hook() {
	if sr.forkAt >= 0 {
		sr.m.levelAt(sr.forkAt).r.Policy().(*core.DynamicPolicy).SetForkHook(sr, forkReach(sr.forkAt))
	}
}

// Arm implements core.ForkHook: the engine snapshots the machine before
// each instruction that may reach the forking cache, up to its boundary.
func (sr *shareRun) Arm() {
	sr.p.eng.Arm(sr.at, sr.forkAt)
	if tr := sr.p.trace; tr != nil {
		tr.arms++
	}
}

// snapshot saves the machine at the start of an instruction that may
// reach its armed cache.
func (sr *shareRun) snapshot() {
	if sr.snap == nil {
		sr.snap = blankMachine(*sr.p.cfgs[sr.lead])
	}
	sr.snap.copyFrom(sr.m)
	if tr := sr.p.trace; tr != nil {
		tr.snapshots++
	}
}

// Boundary implements core.ForkHook. The followers that detached at the
// boundary just crossed leave this run in groups by target, in order
// of first appearance. Each group becomes a new run on a copy of the
// snapshot — its first follower leading, the rest following — that
// joins the engine and replays the instruction from its start: the
// very run the group would have made from instruction 0, without
// replaying the prefix. The armed cache saw at most its reach of
// accesses since the arm, so the snapshot is of this instruction; a
// split without one is a broken invariant, and panics.
func (sr *shareRun) Boundary() {
	p := sr.p
	p.eng.Disarm(sr.at)
	if p.trace != nil {
		p.trace.boundaries++
	}
	var targets []int
	var groups [][]follower
	kept := sr.follow[:0]
	for _, f := range sr.follow {
		s, detached := f.detached()
		if !detached {
			kept = append(kept, f)
			continue
		}
		n := slices.Index(targets, s.Target)
		if n < 0 {
			n = len(targets)
			targets = append(targets, s.Target)
			groups = append(groups, nil)
		}
		groups[n] = append(groups[n], f)
	}
	sr.follow = kept
	if len(groups) == 0 {
		return
	}
	if !p.eng.Forking(sr.at) {
		panic(fmt.Sprintf("sim: followers split from machine %d without a snapshot of the instruction", sr.at))
	}
	if p.trace != nil {
		s, _ := groups[0][0].detached()
		p.trace.forks = append(p.trace.forks, forkEvent{boundary: s.Boundary, machines: len(groups), gen: sr.gen})
	}

	// The first group takes the snapshot over; the others copy it first.
	machines := make([]*machine, len(groups))
	for k := 1; k < len(groups); k++ {
		machines[k] = blankMachine(*p.cfgs[sr.lead])
		machines[k].copyFrom(sr.snap)
	}
	machines[0], sr.snap = sr.snap, nil
	for k, g := range groups {
		fork := &shareRun{p: p, lead: g[0].i, m: machines[k], follow: g[1:], forkAt: -1, gen: sr.gen + 1}
		pols := make([]*core.DynamicPolicy, len(g))
		for n, f := range g {
			pols[n] = f.pol
		}
		// A fork without followers never forks again.
		var h core.ForkHook
		if len(g) > 1 {
			fork.forkAt, h = sr.forkAt, fork
		}
		core.Fork(machines[k].levelAt(sr.forkAt).r, pols, h, forkReach(sr.forkAt))
		fork.at = p.eng.Join(sr.at, fork.member())
		p.runs = append(p.runs, fork)
		if p.accs != nil {
			p.accs = append(p.accs, p.accs[sr.at].fork(fork.m))
			p.base = append(p.base, p.base[sr.at])
		}
	}
}

// forkReach is the most accesses one instruction can make to the cache
// at machine position pos: one to an L1 (a fetch group's i-fetch, a
// memop's data access); three to the L2 (an i-fill, a d-fill and the
// write of a dirty L1d victim); and for each level further down twice
// the level above's, a fill and a dirty victim's write per access. The
// forking cache is its share group's only dynamic one, so no other
// cache resizes mid-run and flushes into it.
func forkReach(pos int) uint64 {
	if pos < l2Pos {
		return 1
	}
	return 3 << (pos - l2Pos)
}

// release returns the frame arrays of the runs' unused snapshots, and
// the engine's BTB array.
func (p *pass) release() {
	p.eng.Release()
	for _, sr := range p.runs {
		if sr.snap != nil {
			sr.snap.release()
			sr.snap = nil
		}
	}
}

// detached reports where the follower left its leader, if it did.
func (f follower) detached() (core.Split, bool) {
	if f.pol == nil {
		return core.Split{}, false
	}
	return f.pol.Detached()
}
