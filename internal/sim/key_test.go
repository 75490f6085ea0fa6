package sim

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"resizecache/internal/analysis/keycomplete"
	"resizecache/internal/core"
	"resizecache/internal/geometry"
)

// TestKeyVersionPinnedToFieldSet derives its assertion from the
// keycomplete analyzer instead of hand-maintaining a parallel list of
// fingerprinted fields: the analyzer re-extracts this package's
// keyVersion and field-set hash from source and both must match the
// pin table embedded in the analyzer
// (internal/analysis/keycomplete/testdata/fieldhash.txt). Adding a
// Config field without routing it into Key() fails keycomplete;
// changing the fingerprinted shape without bumping keyVersion and
// re-pinning fails here and in simlint identically.
func TestKeyVersionPinnedToFieldSet(t *testing.T) {
	version, hash, err := keycomplete.RepoFieldSet()
	if err != nil {
		t.Fatalf("extracting field set: %v", err)
	}
	if version != keyVersion {
		t.Fatalf("analyzer saw keyVersion %d, package declares %d", version, keyVersion)
	}
	pinned, ok := keycomplete.Pin("resizecache/internal/sim", version)
	if !ok {
		t.Fatalf("keyVersion %d has no pin: add %q to internal/analysis/keycomplete/testdata/fieldhash.txt",
			version, hash)
	}
	if pinned != hash {
		t.Fatalf("fingerprinted field set (hash %s) drifted from the keyVersion-%d pin %s: bump keyVersion and pin the new hash",
			hash, version, pinned)
	}
}

// mutateL2 clones the hierarchy (the Levels backing array is shared
// between config copies) and applies fn to the outermost level.
func mutateL2(c *Config, fn func(*LevelSpec)) {
	c.Levels = append([]LevelSpec(nil), c.Levels...)
	fn(&c.Levels[0])
}

func TestKeyStableAcrossCalls(t *testing.T) {
	a := Default("gcc").Key()
	b := Default("gcc").Key()
	if a != b {
		t.Fatal("identical configs produced different keys")
	}
	if a.String() == "" || len(a.String()) != 64 {
		t.Fatalf("key hex %q not 64 chars", a.String())
	}
}

// TestKeyDistinguishesConfigs mutates every semantically meaningful
// field group and checks each mutation moves the fingerprint.
func TestKeyDistinguishesConfigs(t *testing.T) {
	base := Default("gcc")
	mutations := map[string]func(*Config){
		"benchmark":     func(c *Config) { c.Benchmark = "vpr" },
		"instructions":  func(c *Config) { c.Instructions++ },
		"engine":        func(c *Config) { c.Engine = InOrder },
		"cpu width":     func(c *Config) { c.CPU.Width++ },
		"rob":           func(c *Config) { c.CPU.ROBEntries++ },
		"dcache geom":   func(c *Config) { c.DCache.Geom.Assoc *= 2 },
		"dcache org":    func(c *Config) { c.DCache.Org = core.SelectiveSets },
		"icache org":    func(c *Config) { c.ICache.Org = core.SelectiveWays },
		"dcache policy": func(c *Config) { c.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1} },
		"static index": func(c *Config) {
			c.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 2}
		},
		"dynamic params": func(c *Config) {
			c.DCache.Policy = PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64}
		},
		"ablation precharge": func(c *Config) { c.DCache.AblationFullPrecharge = true },
		"ablation flush":     func(c *Config) { c.ICache.AblationFreeFlush = true },
		"l2 geom":            func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.Geom.SizeBytes *= 2 }) },
		"l2 assoc":           func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.Geom.Assoc *= 2 }) },
		"l2 org":             func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.Org = core.SelectiveWays }) },
		"l2 policy": func(c *Config) {
			mutateL2(c, func(l *LevelSpec) {
				l.Org = core.SelectiveWays
				l.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1}
			})
		},
		"l2 precharge": func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.Precharge = PrechargeFull }) },
		"l2 mshrs":     func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.MSHREntries = 4 }) },
		"l2 writeback": func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.WritebackEntries = 4 }) },
		"l2 ablation":  func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.AblationFreeFlush = true }) },
		"added l3": func(c *Config) {
			c.Levels = append(append([]LevelSpec(nil), c.Levels...), LevelSpec{CacheSpec: CacheSpec{
				Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
				Org:  core.NonResizable,
			}})
		},
		"no shared levels": func(c *Config) { c.Levels = nil },
		"mshrs":            func(c *Config) { c.MSHREntries++ },
		"writeback":        func(c *Config) { c.WritebackEntries++ },
		"energy model":     func(c *Config) { c.Energy.PrechargePJPerBit *= 2 },
		"core energies":    func(c *Config) { c.Core.ClockPJ *= 2 },
	}
	baseKey := base.Key()
	seen := map[Key]string{baseKey: "base"}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		k := cfg.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyHierarchySpellings: a one-level Levels spec that spells out
// its zero-value knobs describes the same simulation and must share a
// fingerprint; materially different hierarchies must not.
func TestKeyHierarchySpellings(t *testing.T) {
	modern := Default("gcc")
	l2 := modern.Levels[0].Geom

	// A zero-value LevelSpec knob set explicitly is still the same level.
	explicit := Default("gcc")
	explicit.Levels = []LevelSpec{{CacheSpec: CacheSpec{Geom: l2, Org: core.NonResizable},
		Precharge: PrechargeDelayed}}
	if explicit.Key() != modern.Key() {
		t.Error("explicit delayed precharge perturbed the fingerprint")
	}

	deep := Default("gcc")
	deep.Levels = append(append([]LevelSpec(nil), deep.Levels...), LevelSpec{CacheSpec: CacheSpec{
		Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
		Org:  core.NonResizable,
	}})
	if deep.Key() == modern.Key() {
		t.Error("adding an L3 did not move the fingerprint")
	}
}

// TestKeyVersionNeverAliasesRetired re-encodes the canonical base
// config with every retired layout — version 1 (flat L2 geometry),
// version 2 (hierarchy-as-data but no sampling fields) and version 3
// (sampling fields and a conflict geometry slot) — and checks no
// fingerprint collides with the current key: a persisted store from an
// older version can only miss under current keys, never serve a stale
// result for a config it does not describe.
func TestKeyVersionNeverAliasesRetired(t *testing.T) {
	if keyVersion != 4 {
		t.Fatalf("keyVersion = %d, want 4 (update this test when bumping)", keyVersion)
	}
	c := Default("gcc").Canonical()
	l2 := c.Levels[0].Geom

	// Shared tails of the retired encodings.
	writeFront := func(e keyEnc) keyEnc {
		return e.str(c.Benchmark).
			u64(c.Instructions).
			u64(uint64(c.Engine)).
			i(c.CPU.Width).
			i(c.CPU.ROBEntries).
			i(c.CPU.LSQEntries).
			u64(c.CPU.DecodeLatency).
			u64(c.CPU.MispredictPenalty).
			cacheSpec(c.DCache).
			cacheSpec(c.ICache)
	}
	writeEnergies := func(e keyEnc) keyEnc {
		return e.f64(c.Energy.PrechargePJPerBit).
			f64(c.Energy.BitlinePJPerBit).
			f64(c.Energy.WordlinePJPerBit).
			f64(c.Energy.SensePJPerBit).
			f64(c.Energy.DecodePJPerSubarray).
			f64(c.Energy.ComparePJPerBit).
			f64(c.Energy.OutputPJPerBit).
			f64(c.Energy.ClockPJPerSubarray).
			f64(c.Energy.LeakagePJPerBytePerCycle).
			f64(c.Core.DecodePJ).
			f64(c.Core.ROBWritePJ).
			f64(c.Core.LSQWritePJ).
			f64(c.Core.RegReadPJ).
			f64(c.Core.RegWritePJ).
			f64(c.Core.IntALUPJ).
			f64(c.Core.FPALUPJ).
			f64(c.Core.BpredPJ).
			f64(c.Core.BTBPJ).
			f64(c.Core.RASPJ).
			f64(c.Core.ResultBusPJ).
			f64(c.Core.ClockPJ)
	}

	e1 := writeFront(keyEnc(nil).u64(1))                        // keyVersion 1
	e1 = e1.geometry(l2).i(c.MSHREntries).i(c.WritebackEntries) // v1: bare L2 geometry
	v1 := Key(sha256.Sum256(writeEnergies(e1)))

	// Versions 2 and 3 share the hierarchy-as-data prefix.
	writeLevels := func(e keyEnc) keyEnc {
		e = e.i(len(c.Levels))
		for _, l := range c.Levels {
			e = e.cacheSpec(l.CacheSpec).
				u64(uint64(l.Precharge)).
				i(l.MSHREntries).
				i(l.WritebackEntries)
		}
		return e
	}

	// v2: no sampling fields.
	e2 := writeLevels(writeFront(keyEnc(nil).u64(2))).
		geometry(geometry.Geometry{}).
		i(c.MSHREntries).
		i(c.WritebackEntries)
	v2 := Key(sha256.Sum256(writeEnergies(e2)))

	// v3: sampling fields, after the conflict geometry slot.
	e3 := writeLevels(writeFront(keyEnc(nil).u64(3))).
		geometry(geometry.Geometry{}).
		i(c.MSHREntries).
		i(c.WritebackEntries).
		u64(c.Sampling.WarmupInstructions).
		u64(c.Sampling.DetailedInstructions).
		u64(c.Sampling.FastForwardInstructions).
		u64(c.Sampling.SkipInstructions)
	v3 := Key(sha256.Sum256(writeEnergies(e3)))
	// The keyVersion 3 golden of this config: the re-encoding is faithful.
	if got := v3.String(); got != "038f2d6d7a995f69b5473ec7187d415a94d82db65749b121a90b0d5d30bbfd8b" {
		t.Fatalf("v3 re-encoding = %s, not the keyVersion 3 golden", got)
	}

	cur := Default("gcc").Key()
	for v, k := range map[int]Key{1: v1, 2: v2, 3: v3} {
		if k == cur {
			t.Errorf("current key aliases the v%d encoding of the same config", v)
		}
	}
}

// TestKeyBuilderStability: identical field sequences fingerprint
// identically, and every perturbation — value, order, field boundary,
// domain — moves the key. The artifact cache depends on both halves:
// stability for hits, sensitivity against collisions.
func TestKeyBuilderStability(t *testing.T) {
	mk := func() Key {
		return NewKeyBuilder("d").Str("app").Int(4).U64(9).RawKey(Default("gcc").Key()).Sum()
	}
	if mk() != mk() {
		t.Fatal("identical builder sequences produced different keys")
	}
	variants := map[string]Key{
		"base":           mk(),
		"domain":         NewKeyBuilder("e").Str("app").Int(4).U64(9).RawKey(Default("gcc").Key()).Sum(),
		"str value":      NewKeyBuilder("d").Str("app2").Int(4).U64(9).RawKey(Default("gcc").Key()).Sum(),
		"int value":      NewKeyBuilder("d").Str("app").Int(5).U64(9).RawKey(Default("gcc").Key()).Sum(),
		"field order":    NewKeyBuilder("d").Int(4).Str("app").U64(9).RawKey(Default("gcc").Key()).Sum(),
		"raw key":        NewKeyBuilder("d").Str("app").Int(4).U64(9).RawKey(Default("vpr").Key()).Sum(),
		"dropped field":  NewKeyBuilder("d").Str("app").Int(4).RawKey(Default("gcc").Key()).Sum(),
		"no raw key":     NewKeyBuilder("d").Str("app").Int(4).U64(9).Sum(),
		"empty sequence": NewKeyBuilder("d").Sum(),
	}
	seen := map[Key]string{}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyBuilderNoAliasing: adjacent string fields must not alias under
// re-chunking (the classic "ab"+"c" vs "a"+"bc" hash mistake).
func TestKeyBuilderNoAliasing(t *testing.T) {
	a := NewKeyBuilder("d").Str("ab").Str("c").Sum()
	b := NewKeyBuilder("d").Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal("string fields alias across boundaries")
	}
}

// TestKeyBuilderSpillMatchesOneShot: a fingerprint longer than the
// builder's block hashes, through the spill path, exactly the bytes a
// one-shot SHA-256 of the concatenated field encodings does, wherever
// the fields happen to straddle a block boundary.
func TestKeyBuilderSpillMatchesOneShot(t *testing.T) {
	for _, strLen := range []int{0, 1, 7, 100, keyBlockBytes - 1, keyBlockBytes, 3*keyBlockBytes + 5} {
		s := strings.Repeat("x", strLen)
		b := NewKeyBuilder("spill")
		want := keyEnc(nil).u64(keyVersion).str("spill")
		for i := range 40 {
			b.Int(i).Str(s).RawKey(Key{byte(i)})
			k := Key{byte(i)}
			want = want.i(i).str(s).u64(uint64(len(k)))
			want = append(want, k[:]...)
		}
		if got := b.Sum(); got != Key(sha256.Sum256(want)) {
			t.Errorf("%d-byte strings: builder key %s differs from the one-shot hash of its %d encoded bytes",
				strLen, got, len(want))
		}
	}
}

// TestKeyBuilderAllocs: a fingerprint that fits the builder's block —
// every sweep and warmup checkpoint key — allocates nothing; a longer
// one allocates only its spill state, however long it grows.
func TestKeyBuilderAllocs(t *testing.T) {
	k := Default("gcc").Key()
	short := testing.AllocsPerRun(100, func() {
		NewKeyBuilder("d").Int(4).Str("gcc").RawKey(k).Sum()
	})
	long := testing.AllocsPerRun(100, func() {
		b := NewKeyBuilder("d")
		for range 100 {
			b.RawKey(k)
		}
		b.Sum()
	})
	if short != 0 || long > 2 {
		t.Errorf("KeyBuilder allocations: %v for one block, %v for 8 KB; want 0 and at most 2", short, long)
	}
}

// TestConfigEqualCoversEveryField: Equal holds for a copy whose
// hierarchy is a distinct but equal slice, and tells apart two configs
// that differ in any one leaf reachable from Config — every field of
// every nested struct, each level of the hierarchy and its length, and
// a float's sign of zero. A field Equal skipped would let one config
// borrow another's Key.
func TestConfigEqualCoversEveryField(t *testing.T) {
	base := Default("gcc")
	base.Levels = append(base.Levels, base.Levels[0])
	clone := func() Config {
		c := base
		c.Levels = slices.Clone(base.Levels)
		return c
	}
	if a, b := clone(), clone(); !a.Equal(&b) {
		t.Fatal("Equal rejects an identical config")
	}

	type edit struct {
		name  string
		apply func(a, b *Config) // a starts and b starts as base
	}
	var edits []edit
	var walk func(path string, typ reflect.Type, at func(*Config) reflect.Value)
	walk = func(path string, typ reflect.Type, at func(*Config) reflect.Value) {
		only := func(name string, set func(v reflect.Value)) {
			edits = append(edits, edit{name, func(_, b *Config) { set(at(b)) }})
		}
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type,
					func(c *Config) reflect.Value { return at(c).Field(i) })
			}
		case reflect.Slice:
			for j := range at(&base).Len() {
				walk(fmt.Sprintf("%s[%d]", path, j), typ.Elem(),
					func(c *Config) reflect.Value { return at(c).Index(j) })
			}
			only(path+" length", func(v reflect.Value) { v.Set(reflect.Append(v, v.Index(0))) })
		case reflect.String:
			only(path, func(v reflect.Value) { v.SetString(v.String() + "x") })
		case reflect.Bool:
			only(path, func(v reflect.Value) { v.SetBool(!v.Bool()) })
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			only(path, func(v reflect.Value) { v.SetInt(v.Int() + 1) })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			only(path, func(v reflect.Value) { v.SetUint(v.Uint() + 1) })
		case reflect.Float32, reflect.Float64:
			only(path, func(v reflect.Value) { v.SetFloat(v.Float() + 1) })
			edits = append(edits, edit{path + " sign of zero", func(a, b *Config) {
				at(a).SetFloat(0)
				at(b).SetFloat(math.Copysign(0, -1))
			}})
		default:
			t.Fatalf("%s: no perturbation for a %v field; teach this test and Config.Equal about it", path, typ.Kind())
		}
	}
	walk("Config", reflect.TypeFor[Config](), func(c *Config) reflect.Value { return reflect.ValueOf(c).Elem() })

	for _, e := range edits {
		a, b := clone(), clone()
		e.apply(&a, &b)
		if a.Equal(&b) || b.Equal(&a) {
			t.Errorf("Equal misses a difference in %s", e.name)
		}
	}
	if len(edits) < 80 {
		t.Fatalf("only %d perturbations: the walk missed most of Config", len(edits))
	}
}

// TestKeyCanonicalization verifies that fields the configured policy
// kind never reads do not perturb the fingerprint.
func TestKeyCanonicalization(t *testing.T) {
	mk := func(p PolicySpec) Config {
		c := Default("gcc")
		c.DCache.Org = core.SelectiveSets
		c.DCache.Policy = p
		return c
	}
	// A static policy ignores the dynamic controller's knobs.
	a := mk(PolicySpec{Kind: PolicyStatic, StaticIndex: 1})
	b := mk(PolicySpec{Kind: PolicyStatic, StaticIndex: 1, Interval: 4096, MissBound: 99})
	if a.Key() != b.Key() {
		t.Error("static policy key depends on dynamic-only fields")
	}
	// A dynamic policy ignores the static index.
	c := mk(PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64})
	d := mk(PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64, StaticIndex: 3})
	if c.Key() != d.Key() {
		t.Error("dynamic policy key depends on static index")
	}
	// No policy ignores everything.
	e := mk(PolicySpec{})
	f := mk(PolicySpec{StaticIndex: 2, Interval: 1024})
	if e.Key() != f.Key() {
		t.Error("nil policy key depends on policy parameters")
	}
	// The in-order engine forces a blocking d-cache: MSHRs are inert.
	g := Default("gcc")
	g.Engine = InOrder
	h := g
	h.MSHREntries = 32
	if g.Key() != h.Key() {
		t.Error("in-order key depends on d-cache MSHR entries")
	}
	// ... but they are meaningful out of order.
	i := Default("gcc")
	j := i
	j.MSHREntries = 32
	if i.Key() == j.Key() {
		t.Error("out-of-order key ignores d-cache MSHR entries")
	}
}

// TestKeyCanonicalizationPerLevel: the policy-knob zeroing applies at
// every level of the hierarchy, not just the L1s.
func TestKeyCanonicalizationPerLevel(t *testing.T) {
	mk := func(p PolicySpec) Config {
		c := Default("gcc")
		mutateL2(&c, func(l *LevelSpec) {
			l.Org = core.SelectiveWays
			l.Policy = p
		})
		return c
	}
	// A static L2 policy ignores the dynamic controller's knobs.
	a := mk(PolicySpec{Kind: PolicyStatic, StaticIndex: 1})
	b := mk(PolicySpec{Kind: PolicyStatic, StaticIndex: 1, Interval: 4096, MissBound: 99})
	if a.Key() != b.Key() {
		t.Error("static L2 policy key depends on dynamic-only fields")
	}
	// A dynamic L2 policy ignores the static index.
	c := mk(PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64})
	d := mk(PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64, StaticIndex: 3})
	if c.Key() != d.Key() {
		t.Error("dynamic L2 policy key depends on static index")
	}
	// No policy ignores every policy parameter.
	e := mk(PolicySpec{StaticIndex: 2, Interval: 1024})
	f := mk(PolicySpec{})
	if e.Key() != f.Key() {
		t.Error("nil L2 policy key depends on policy parameters")
	}
	// Canonical must not mutate the caller's Levels in place.
	orig := Default("gcc")
	mutateL2(&orig, func(l *LevelSpec) {
		l.Org = core.SelectiveWays
		l.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1, Interval: 4096}
	})
	_ = orig.Canonical()
	if orig.Levels[0].Policy.Interval != 4096 {
		t.Error("Canonical mutated the caller's level specs")
	}
}
