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
// shared level, a deeper hierarchy, sampling, and the ablation
// switches).
func keyGoldenConfigs() []struct {
	name string
	cfg  Config
} {
	withL2 := func(c Config, fn func(*LevelSpec)) Config {
		c.Levels = append([]LevelSpec(nil), c.Levels...)
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
			"f6c4a0f8d2c5c726f32d96389df8e4f94459b645313d50fc9ba05a8127e9f1f0",
			"116b08b5c4d71a50ed3164857a4778ff2dc28f063cd19f617f219de828ab6382"},
		"base-inorder": {
			"731938e12ee0adcc823a88ebb919779ee3dd90d060d5bb04b303301cd49e3186",
			"eab68886364c3db531a278725b27e06d2394d34e122a37efcb764dbbb4b2c521"},
		"inorder-mshr": {
			"1d011109a244a795315d37b0aa713c6709e2b1b3dc42c5b6abd836936d47a0ce",
			"e2bd3e95226a133a69d506e5b4d5b58feaf6aa0e27d2df3f0e950b19da8202a0"},
		"static-inert": {
			"4e283ce63e338f5fa53b22ad02acace76f3821cc005bcb74f9a5fefdd0f52411",
			"c11f9bd6f3ce4c8a33d81fa2cc37977ab3dd51e7cd48f86046259fe1865052e5"},
		"dynamic-inert": {
			"d0f2a71e35867d51b88c0f18e588f69f31ded9f7f0b9de7cb1bc878296345a72",
			"7300f61e9a5c490b563bc11ee40ceecc99d69b010df4818de1ebe63313664644"},
		"dynamic-l2": {
			"62b526c59aaf870801ade8eb3439b2c8a1e7a3c9dbd4169b7bbe7446559b551b",
			"116b08b5c4d71a50ed3164857a4778ff2dc28f063cd19f617f219de828ab6382"},
		"two-level": {
			"dc27b6bd557973fdb7b91a4026c900e817fc167ce1cc4cf26204902d72ba4b3a",
			"883828317bd8a89e13995f95e7f05f84ee1b2e16c19d8a92722385f0c83e1e39"},
		"legacy-l2geom": {
			"f6c4a0f8d2c5c726f32d96389df8e4f94459b645313d50fc9ba05a8127e9f1f0",
			"116b08b5c4d71a50ed3164857a4778ff2dc28f063cd19f617f219de828ab6382"},
		"levels-l2geom-conflict": {
			"f6b1417882b10dd3d296f9628e9f2d496ff4cd1deaf7647e7a6b361f64e1b2e0",
			"116b08b5c4d71a50ed3164857a4778ff2dc28f063cd19f617f219de828ab6382"},
		"sampled": {
			"419ea5aff99763e788edc8a252b7c3f1da96c5a0029be90de9fa5158f2ca5bf0",
			"7e67749556914360d8f308c7b5d51a89d7472a244cf03970f8049b365151d4a6"},
		"ablation": {
			"e298d502e0bf9cc675ad64d083085db6439fec1dba25b8dfb1658cbae812947d",
			"c11f9bd6f3ce4c8a33d81fa2cc37977ab3dd51e7cd48f86046259fe1865052e5"},
		"oversized": {
			"dbbb786b166bb7514cda11c77fdedba3329388c1ec8b3fbd08469293cf7820e9",
			"f836e96a7dc264c515ed2aa3b649bdec67057dd9304eb8fa66055cef1fefe5f7"},
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
	const wantBuilder = "33f8e272cb7616928ed91c4efb23786b005e2ec443f05d03e90d058291cd0d7c"
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
