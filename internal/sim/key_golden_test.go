package sim

import (
	"strings"
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
)

// keyGoldenConfigs are the configs whose fingerprints TestKeyGolden
// pins: together they reach every branch of the Key encoding (both
// engines, both policy kinds with their inert fields set, a resizable
// shared level, a deeper hierarchy, both L2 spellings, sampling, and
// the ablation switches).
func keyGoldenConfigs() []struct {
	name string
	cfg  Config
} {
	withL2 := func(c Config, fn func(*LevelSpec)) Config {
		c.Levels = append([]LevelSpec(nil), c.Hierarchy()...)
		fn(&c.Levels[0])
		return c
	}
	base := Default("gcc")

	inorderMSHR := Default("vpr")
	inorderMSHR.Engine = InOrder
	inorderMSHR.MSHREntries = 32

	static := Default("m88ksim")
	static.DCache.Org = core.SelectiveSets
	static.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 3,
		Interval: 4096, MissBound: 99, SizeBoundBytes: 8 << 10, UpsizeHoldIntervals: 3}

	dynamic := Default("su2cor")
	dynamic.ICache.Org = core.Hybrid
	dynamic.ICache.Policy = PolicySpec{Kind: PolicyDynamic, StaticIndex: 5,
		Interval: 16384, MissBound: 163, SizeBoundBytes: 4 << 10, UpsizeHoldIntervals: 3}
	dynamic.DCache.Policy = PolicySpec{StaticIndex: 2, Interval: 1024}

	dynL2 := withL2(Default("gcc"), func(l *LevelSpec) {
		l.Org = core.SelectiveWays
		l.Policy = PolicySpec{Kind: PolicyDynamic, Interval: 1024, MissBound: 20,
			SizeBoundBytes: 128 << 10, UpsizeHoldIntervals: 0, StaticIndex: 7}
	})

	twoLevel := Default("vpr")
	twoLevel.Levels = append(append([]LevelSpec(nil), twoLevel.Levels...), LevelSpec{
		CacheSpec: CacheSpec{
			Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
			Org:  core.NonResizable,
		},
		Precharge: PrechargeFull, MSHREntries: 4, WritebackEntries: 2,
	})

	legacy := Default("gcc")
	legacy.L2Geom = legacy.Hierarchy()[0].Geom
	legacy.Levels = nil

	conflict := Default("gcc")
	conflict.L2Geom = conflict.Hierarchy()[0].Geom

	sampled := Default("su2cor")
	sampled.Instructions = 250_000
	sampled.Sampling = DefaultSampling()

	ablation := Default("m88ksim")
	ablation.DCache.AblationFullPrecharge = true
	ablation.ICache.AblationFreeFlush = true
	ablation = withL2(ablation, func(l *LevelSpec) { l.AblationFreeFlush = true })

	inorder := base
	inorder.Engine = InOrder

	// Longer than any real config: a 700-byte benchmark name over a
	// six-level hierarchy.
	oversized := Default(strings.Repeat("x", 700))
	for len(oversized.Levels) < 6 {
		l := oversized.Levels[len(oversized.Levels)-1]
		l.Geom.SizeBytes *= 2
		l.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: len(oversized.Levels), Interval: 9}
		oversized.Levels = append(oversized.Levels, l)
	}

	return []struct {
		name string
		cfg  Config
	}{
		{"base-ooo", base},
		{"base-inorder", inorder},
		{"inorder-mshr", inorderMSHR},
		{"static-inert", static},
		{"dynamic-inert", dynamic},
		{"dynamic-l2", dynL2},
		{"two-level", twoLevel},
		{"legacy-l2geom", legacy},
		{"levels-l2geom-conflict", conflict},
		{"sampled", sampled},
		{"ablation", ablation},
		{"oversized", oversized},
	}
}

// TestKeyGolden pins the literal fingerprints of Key and FrontKey on a
// fixed set of configs, and of one KeyBuilder sequence. Persisted
// stores (DiskStore files, a daemon's MemStore, simd clients) are keyed
// by these bytes: any change to the encoding, however well-meant,
// silently turns every stored result into a miss. A deliberate change
// bumps keyVersion and re-pins these values.
func TestKeyGolden(t *testing.T) {
	want := map[string][2]string{ // name -> {Key, FrontKey}
		"base-ooo": {
			"038f2d6d7a995f69b5473ec7187d415a94d82db65749b121a90b0d5d30bbfd8b",
			"e37d999078761b37b7a416a4f50ac2f71a6e89a0a0ab3f5908f2836648095cd5"},
		"base-inorder": {
			"6b996dd530b4b6155a61e5dee6e4419031361aca8f5ae1f80f4542e074e1f741",
			"17540ee08f9bd38b6e6b29054c0b2842b55bb02f14c81bb7ed40839b83d1b9dd"},
		"inorder-mshr": {
			"ee9c49ea6c11ad301d2d02205d89c9ca19d8c1c871f09ba6512dc0e6dafbebb9",
			"f90799e46e63e602fb1b4bd175f5671c3dc1deb86f906df4b2bf9438a69351e6"},
		"static-inert": {
			"d6cffbd7eb442f5bddb8b9a365ef6f7b4ef0051dda73a2a5eba10d2b69aeb4cd",
			"7de0e3369e9866bd512ef854847709a70602054e277e57daad1dcdf17fdd49ed"},
		"dynamic-inert": {
			"5ed8fd682c5df801f51a925d345563f75f9217246c6e2c57861be7a6b037836d",
			"9e7f264c0802ff3afb574796a9536874d55dcbb1698367ef7e56a42dedfd8f6c"},
		"dynamic-l2": {
			"6f15fcfffe02a96d6e10aa08b7fc5907dc3a3436ddab287c611f4aaa972d1c6f",
			"e37d999078761b37b7a416a4f50ac2f71a6e89a0a0ab3f5908f2836648095cd5"},
		"two-level": {
			"29ba36e4cba8f20e4851227701375ca2087867e5ae57675b1ed8b0291c3490e6",
			"35995e7500d9313a063e72d37daf16d39bbddcc8c094b5760545710cf396ff80"},
		"legacy-l2geom": {
			"038f2d6d7a995f69b5473ec7187d415a94d82db65749b121a90b0d5d30bbfd8b",
			"e37d999078761b37b7a416a4f50ac2f71a6e89a0a0ab3f5908f2836648095cd5"},
		"levels-l2geom-conflict": {
			"f6b1417882b10dd3d296f9628e9f2d496ff4cd1deaf7647e7a6b361f64e1b2e0",
			"e37d999078761b37b7a416a4f50ac2f71a6e89a0a0ab3f5908f2836648095cd5"},
		"sampled": {
			"4619cfbeefd467a8a94e438bf8f071f43ced71f1cabb0b584e5d1127a6a74ba1",
			"00ef370fbbf8052a407113aef616378a56e1211ba56b22c810c6a792ff8668d3"},
		"ablation": {
			"042d65443df4a3359bf01254fe13359252000486ec7c8130770ebe78b87f71c0",
			"7de0e3369e9866bd512ef854847709a70602054e277e57daad1dcdf17fdd49ed"},
		"oversized": {
			"8c1460cc39de86402a36d4fa8309c38723e35cf3f0f76cd0667d435d68dcae2f",
			"d3f9046bab02380621ec4fe6f0f826aaaf1cd581bd1770fff4d3153f5d856edb"},
	}
	for _, tc := range keyGoldenConfigs() {
		got := [2]string{tc.cfg.Key().String(), tc.cfg.FrontKey().String()}
		w, ok := want[tc.name]
		if !ok {
			t.Errorf("%q: no pinned fingerprint; got {%q, %q}", tc.name, got[0], got[1])
			continue
		}
		if got[0] != w[0] {
			t.Errorf("%s: Key = %s, pinned %s", tc.name, got[0], w[0])
		}
		if got[1] != w[1] {
			t.Errorf("%s: FrontKey = %s, pinned %s", tc.name, got[1], w[1])
		}
		// Key applies Canonical's normal form while encoding; the two
		// must agree.
		if canon := tc.cfg.Canonical().Key().String(); canon != got[0] {
			t.Errorf("%s: Canonical().Key() = %s, Key() = %s", tc.name, canon, got[0])
		}
	}

	b := NewKeyBuilder("golden").Str("gcc").Int(-7).U64(1 << 40).Str("").
		RawKey(Default("gcc").Key()).Int(0)
	const wantBuilder = "7d0a65d64f194b6927d1ba795771fca4be9a22d78cb671f2d74028385945638c"
	if got := b.Sum().String(); got != wantBuilder {
		t.Errorf("KeyBuilder sequence = %s, pinned %s", got, wantBuilder)
	}
}

// TestKeyAllocs guards the allocation-free fingerprint path: Key and
// FrontKey encode on the stack and hash once, for the base config and
// for a two-level hierarchy alike.
func TestKeyAllocs(t *testing.T) {
	for _, tc := range keyGoldenConfigs() {
		if tc.name != "base-ooo" && tc.name != "two-level" {
			continue
		}
		cfg := tc.cfg
		if n := testing.AllocsPerRun(100, func() { _ = cfg.Key() }); n != 0 {
			t.Errorf("%s: Key makes %v allocations, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = cfg.FrontKey() }); n != 0 {
			t.Errorf("%s: FrontKey makes %v allocations, want 0", tc.name, n)
		}
	}
}
