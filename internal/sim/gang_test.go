package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"resizecache/internal/core"
)

// gangSiblings builds a gang around cfg: the config itself plus members
// that differ only in per-member state (cache geometry, hierarchy
// depth) — exactly what a sweep varies within one benchmark.
func gangSiblings(cfg Config) []Config {
	bigD := cfg
	bigD.DCache.Geom.SizeBytes *= 2
	noL2 := cfg
	noL2.Levels = nil
	return []Config{cfg, bigD, noL2}
}

// TestGangMatchesGolden is the member-order property: for every
// golden-fixture config and every rotation of a gang of the config plus
// per-member variants, each member's Result is bit-identical to its gang
// of one — members do not interfere, whatever their position. The golden
// fixtures are the oracle for the gangs of one (TestGoldenResults pins
// Run, which is one).
func TestGangMatchesGolden(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			gang := gangSiblings(cfg)
			want := singles(t, gang)
			for r := range gang {
				rot := append(append([]Config(nil), gang[r:]...), gang[:r]...)
				got, err := RunGang(rot)
				if err != nil {
					t.Fatal(err)
				}
				for i := range rot {
					if m := (r + i) % len(gang); !reflect.DeepEqual(got[i], want[m]) {
						diffResult(t, fmt.Sprintf("%s rotation %d member %d", name, r, m), want[m], got[i])
					}
				}
			}
		})
	}
}

// singles runs each config as a gang of one.
func singles(t *testing.T, cfgs []Config) []Result {
	t.Helper()
	out := make([]Result, len(cfgs))
	for i, c := range cfgs {
		r, err := RunGang([]Config{c})
		if err != nil {
			t.Fatalf("member %d alone: %v", i, err)
		}
		out[i] = r[0]
	}
	return out
}

// TestGangSingleMember: Run is exactly a gang of one.
func TestGangSingleMember(t *testing.T) {
	cfg := Default("gcc")
	cfg.Instructions = 50_000
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunGang([]Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		diffResult(t, "single", want, got[0])
	}
}

// TestGangEmpty: an empty gang is a no-op, not an error.
func TestGangEmpty(t *testing.T) {
	res, err := RunGang(nil)
	if err != nil || res != nil {
		t.Fatalf("empty gang: %v, %v", res, err)
	}
}

// TestGangChunked: a gang larger than the chunk size, whose chunks each
// read the stream from the start — from their own generators, or, past
// the memo's first (live) chunk, from one recording — still gives every
// member its gang-of-one Result, in submission order and reversed.
func TestGangChunked(t *testing.T) {
	if testing.Short() {
		t.Skip("chunked gang is long")
	}
	base := Default("gcc")
	base.Instructions = 20_000
	var gang []Config
	for len(gang) <= gangChunk {
		for _, kb := range []int{8, 16, 32, 64} {
			c := base
			c.DCache.Geom.SizeBytes = kb << 10
			c.DCache.Geom.Assoc = 1 << (len(gang) / 4 % 4)
			gang = append(gang, c)
		}
	}
	want := singles(t, gang)
	reversed := make([]Config, len(gang))
	for i, c := range gang {
		reversed[len(gang)-1-i] = c
	}
	got, err := RunGang(gang)
	if err != nil {
		t.Fatal(err)
	}
	gotReversed, err := RunGang(reversed)
	if err != nil {
		t.Fatal(err)
	}
	replayed, _, err := NewStreams(1).RunGang(gang, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gang {
		if !reflect.DeepEqual(got[i], want[i]) {
			diffResult(t, fmt.Sprintf("chunked member %d", i), want[i], got[i])
		}
		if r := gotReversed[len(gang)-1-i]; !reflect.DeepEqual(r, want[i]) {
			diffResult(t, fmt.Sprintf("reversed member %d", i), want[i], r)
		}
		if !reflect.DeepEqual(replayed[i], want[i]) {
			diffResult(t, fmt.Sprintf("chunked replay member %d", i), want[i], replayed[i])
		}
	}
}

// TestGangRejectsMixedFront: configs that differ in any front-end field
// must error (not silently desync); the error names the mismatch.
func TestGangRejectsMixedFront(t *testing.T) {
	base := Default("gcc")
	base.Instructions = 10_000

	mismatches := map[string]func(*Config){
		"benchmark":    func(c *Config) { c.Benchmark = "vpr" },
		"engine":       func(c *Config) { c.Engine = InOrder },
		"instructions": func(c *Config) { c.Instructions = 20_000 },
		"width":        func(c *Config) { c.CPU.Width = 2 },
		"rob":          func(c *Config) { c.CPU.ROBEntries = 32 },
	}
	for name, mutate := range mismatches {
		other := base
		mutate(&other)
		if _, err := RunGang([]Config{base, other}); err == nil {
			t.Errorf("%s mismatch accepted", name)
		} else if !strings.Contains(err.Error(), "front-end mismatch") {
			t.Errorf("%s mismatch: unexpected error %v", name, err)
		}
	}

	// Per-member differences must NOT be rejected.
	if _, err := RunGang(gangSiblings(base)); err != nil {
		t.Errorf("per-member variation rejected: %v", err)
	}
}

// TestGangRejectsInvalidMember: an invalid member (unknown benchmark,
// zero budget) fails the whole gang up front, and the error names the
// member. A gang of one is Run, so its error is Run's, naming no member.
func TestGangRejectsInvalidMember(t *testing.T) {
	good := Default("gcc")
	good.Instructions = 10_000
	zero := good
	zero.Instructions = 0
	if _, err := RunGang([]Config{good, good, zero}); err == nil {
		t.Error("zero-budget member accepted")
	} else if !strings.HasPrefix(err.Error(), "sim: gang member 2: ") {
		t.Errorf("zero-budget member: error %q does not name member 2", err)
	}
	unknown := Config{Benchmark: "no-such-benchmark", Instructions: 1}
	if _, err := RunGang([]Config{unknown, good}); err == nil {
		t.Error("unknown benchmark accepted")
	} else if !strings.HasPrefix(err.Error(), "sim: gang member 0: ") {
		t.Errorf("unknown benchmark: error %q does not name member 0", err)
	}
	_, runErr := Run(unknown)
	if _, err := RunGang([]Config{unknown}); err == nil || runErr == nil || err.Error() != runErr.Error() {
		t.Errorf("gang of one: error %v, want Run's error %v", err, runErr)
	} else if strings.Contains(err.Error(), "gang member") {
		t.Errorf("gang of one: error %q names a member", err)
	}
}

// TestFrontKeyProjection: FrontKey is exactly the front-end projection —
// sensitive to every front field, insensitive to every per-member field.
func TestFrontKeyProjection(t *testing.T) {
	base := Default("gcc")
	k := base.FrontKey()

	front := map[string]func(*Config){
		"benchmark":    func(c *Config) { c.Benchmark = "vpr" },
		"instructions": func(c *Config) { c.Instructions++ },
		"engine":       func(c *Config) { c.Engine = InOrder },
		"width":        func(c *Config) { c.CPU.Width = 2 },
		"rob":          func(c *Config) { c.CPU.ROBEntries = 32 },
		"lsq":          func(c *Config) { c.CPU.LSQEntries = 16 },
		"decode":       func(c *Config) { c.CPU.DecodeLatency = 5 },
		"mispredict":   func(c *Config) { c.CPU.MispredictPenalty = 9 },
	}
	for name, mutate := range front {
		c := base
		mutate(&c)
		if c.FrontKey() == k {
			t.Errorf("FrontKey insensitive to front field %s", name)
		}
	}

	member := map[string]func(*Config){
		"dcache":  func(c *Config) { c.DCache.Geom.SizeBytes *= 2 },
		"levels":  func(c *Config) { c.Levels = nil },
		"mshr":    func(c *Config) { c.MSHREntries = 2 },
		"energy":  func(c *Config) { c.Energy.BitlinePJPerBit *= 2 },
		"core-pj": func(c *Config) { c.Core.ClockPJ *= 2 },
	}
	for name, mutate := range member {
		c := base
		mutate(&c)
		if c.FrontKey() != k {
			t.Errorf("FrontKey sensitive to per-member field %s", name)
		}
	}
}

// TestGangByReference: Streams.Run over configs handed by pointer, with
// the caller's share groups, in an order of its choosing, writes each
// member's RunGang Result where its Out points and leaves the configs
// as they were — detailed and sampled, replayed and live.
func TestGangByReference(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		base := sweepBase("m88ksim", OutOfOrder, 20_000)
		if sampled {
			base.Instructions = 40_000
			base.Sampling = sharedSampling()
		}
		batch := dynamicSweepBatch(t, base, dPos, core.SelectiveSets)
		want, err := RunGang(batch)
		if err != nil {
			t.Fatal(err)
		}
		before := slices.Clone(batch)
		// Members in reverse batch order, grouped by ShareKey in that order.
		n := len(batch)
		reversed := make([]Config, n)
		g := Gang{Cfgs: make([]*Config, n), Out: make([]*Result, n)}
		out := make([]Result, n)
		for i := range batch {
			reversed[i] = batch[n-1-i]
			g.Cfgs[i], g.Out[i] = &batch[n-1-i], &out[i]
		}
		g.Groups = shareGroups(reversed)
		if len(g.Groups) < 2 || len(g.Groups) == n {
			t.Fatalf("sampled %v: %d share groups over %d configs, want several shared ones", sampled, len(g.Groups), n)
		}
		for _, s := range []*Streams{nil, NewStreams(1), NewStreams(1)} {
			if _, err := s.Run(g, nil); err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if !reflect.DeepEqual(out[i], want[n-1-i]) {
					diffResult(t, fmt.Sprintf("sampled %v: member %d", sampled, i), want[n-1-i], out[i])
				}
			}
			clear(out)
		}
		for i := range batch {
			if !batch[i].Equal(&before[i]) {
				t.Errorf("sampled %v: config %d changed by the run", sampled, i)
			}
		}
	}
}
