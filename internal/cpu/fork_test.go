package cpu

import (
	"reflect"
	"testing"

	"resizecache/internal/bpred"
	"resizecache/internal/cache"
	"resizecache/internal/geometry"
	"resizecache/internal/workload"
)

// forkMachine is a member's memory system that the tests can copy: two
// L1s over an L2 and memory.
type forkMachine struct {
	ic, dc, l2 *cache.Cache
	mem        *cache.Memory
}

func newForkMachine(t *testing.T, dMSHR int) *forkMachine {
	t.Helper()
	m := &forkMachine{mem: cache.NewMemory(64)}
	l1 := geometry.Geometry{SizeBytes: 16 << 10, Assoc: 2, BlockBytes: 32, SubarrayBytes: 1 << 10}
	var err error
	if m.l2, err = cache.New(cache.Config{Name: "L2", HitLatency: 12, Energy: geometry.Default18um(),
		DelayedPrecharge: true, WritebackEntries: 4,
		Geom: geometry.Geometry{SizeBytes: 256 << 10, Assoc: 4, BlockBytes: 64, SubarrayBytes: 4 << 10}}, m.mem); err != nil {
		t.Fatal(err)
	}
	if m.ic, err = cache.New(cache.Config{Name: "L1i", HitLatency: 1, Energy: geometry.Default18um(),
		MSHREntries: 2, Geom: l1}, m.l2); err != nil {
		t.Fatal(err)
	}
	if m.dc, err = cache.New(cache.Config{Name: "L1d", HitLatency: 1, Energy: geometry.Default18um(),
		MSHREntries: dMSHR, WritebackEntries: 8, Geom: l1}, m.l2); err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *forkMachine) copyFrom(src *forkMachine) {
	m.ic.CopyFrom(src.ic)
	m.dc.CopyFrom(src.dc)
	m.l2.CopyFrom(src.l2)
	*m.mem = *src.mem
}

// forkingLevel wraps one L1 of member 0 the way a share group's
// dynamic policy drives its gang: one access before access number at it
// arms the member, and right after that access it joins a member
// forked from the snapshot and disarms.
type forkingLevel struct {
	*cache.Cache
	g      **Gang
	level  int // 0 the d-cache, 1 the i-cache
	at     int
	n      int
	fork   *forkMachine // the snapshot, which the fork takes over
	joined int
}

func (l *forkingLevel) Access(now, addr uint64, write bool) uint64 {
	done := l.Cache.Access(now, addr, write)
	l.n++
	switch l.n {
	case l.at - 1:
		(*l.g).Arm(0, l.level)
	case l.at:
		l.joined = (*l.g).Join(0, GangMember{IC: l.fork.ic, DC: l.fork.dc})
		(*l.g).Disarm(0)
	}
	return done
}

// TestJoinReplaysArmedInstruction: a member forked from member 0's
// snapshot mid-window, over an i-cache or a d-cache access, replays the
// armed instruction and runs on to a Result bit-identical to member 0's
// and to a one-member engine's, on both engines, detailed and across
// windows.
func TestJoinReplaysArmedInstruction(t *testing.T) {
	const instr = 30_000
	for _, inOrder := range []bool{false, true} {
		for _, dside := range []bool{false, true} {
			for _, windows := range []int{1, 3} {
				dMSHR := 8
				if inOrder {
					dMSHR = 0
				}
				newGang := func(members []GangMember) *Gang {
					var g *Gang
					var err error
					if inOrder {
						g, err = NewGangInOrder(DefaultConfig(), bpred.NewDefault(), members)
					} else {
						g, err = NewGangOutOfOrder(DefaultConfig(), bpred.NewDefault(), members)
					}
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
				run := func(g *Gang) []Result {
					src := workload.NewGenerator(workload.MustGet("gcc"))
					var base []uint64
					var out []Result
					for w := 0; w < windows; w++ {
						out = g.RunWindow(src, instr/uint64(windows), base)
						base = base[:0]
						for _, r := range out {
							base = append(base, r.Cycles)
						}
						g.FastForward(src, 1000)
					}
					return out
				}

				alone := newForkMachine(t, dMSHR)
				want := run(newGang([]GangMember{{IC: alone.ic, DC: alone.dc}}))[0]

				m := newForkMachine(t, dMSHR)
				snap := newForkMachine(t, dMSHR)
				var g *Gang
				l := &forkingLevel{g: &g, level: 1, at: 2500, fork: snap}
				member := GangMember{IC: m.ic, DC: m.dc, Snapshot: func() { snap.copyFrom(m) }}
				if dside {
					l.level = 0
					l.Cache, member.DC = m.dc, l
				} else {
					l.Cache, member.IC = m.ic, l
				}
				g = newGang([]GangMember{member})
				got := run(g)
				if l.joined != 1 || len(got) != 2 {
					t.Fatalf("inOrder=%v dside=%v windows=%d: joined as member %d, %d results", inOrder, dside, windows, l.joined, len(got))
				}
				for i, r := range got {
					if !reflect.DeepEqual(r, want) {
						t.Errorf("inOrder=%v dside=%v windows=%d: member %d = %+v, want %+v", inOrder, dside, windows, i, r, want)
					}
				}
				if !reflect.DeepEqual(snap.dc.Stat, alone.dc.Stat) || !reflect.DeepEqual(snap.ic.Stat, alone.ic.Stat) {
					t.Errorf("inOrder=%v dside=%v windows=%d: the fork's caches ended unlike the lone run's", inOrder, dside, windows)
				}
			}
		}
	}
}

// TestJoinWithoutSnapshotPanics: only a member whose armed instruction
// is in progress can be forked from.
func TestJoinWithoutSnapshotPanics(t *testing.T) {
	m := newForkMachine(t, 8)
	g, err := NewGangOutOfOrder(DefaultConfig(), bpred.NewDefault(), []GangMember{{IC: m.ic, DC: m.dc}})
	if err != nil {
		t.Fatal(err)
	}
	g.Arm(0, 0)
	if g.Forking(0) {
		t.Fatal("forking before the armed instruction started")
	}
	defer func() {
		if recover() == nil {
			t.Error("Join from an unsnapshotted member did not panic")
		}
	}()
	g.Join(0, GangMember{IC: m.ic, DC: m.dc})
}
