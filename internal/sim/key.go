package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"

	"resizecache/internal/energy"
	"resizecache/internal/geometry"
)

// Key is a content-addressed fingerprint of a Config: two Configs that
// describe the same simulation (after Canonical normalization) hash to
// the same Key, and any semantically meaningful field difference yields
// a different Key. Keys index the run-orchestration layer's memoized
// result store (internal/runner) and its on-disk resume files, so the
// encoding below is versioned: bump keyVersion whenever Config gains a
// field or an existing field changes meaning, which invalidates stale
// persisted results instead of silently aliasing them.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk store's map key).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyVersion tags the fingerprint encoding; see Key. Version 2
// introduced the hierarchy-as-data encoding: the full Levels list is
// fingerprinted (count plus every LevelSpec field) where version 1
// encoded a bare L2 geometry, so v1 stores invalidate cleanly — their
// keys can never alias a v2 config. Version 3 added the sampling spec
// (warmup/detailed/fast-forward instruction counts) to both Key and
// FrontKey for the interval-sampled execution mode. Version 4 dropped
// the deprecated single-level L2 geometry field and its conflict slot:
// Levels is the only way to describe the shared hierarchy.
const keyVersion = 4

// Canonical returns the config with semantically inert fields zeroed
// and the hierarchy in normal form, so that configs describing
// identical simulations fingerprint identically:
//
//   - policy parameters not read by the configured policy kind (a static
//     policy ignores the dynamic controller's knobs and vice versa), at
//     every level of the hierarchy;
//   - d-cache MSHRs under the in-order engine, which forces a blocking
//     d-cache regardless of the configured entry count;
//   - an empty, non-nil Levels, which connects the L1s to memory just
//     as a nil one does.
//
// Run never inspects the zeroed fields, so Canonical is behaviour
// preserving by construction.
func (c Config) Canonical() Config {
	c.DCache.Policy = c.DCache.Policy.canonical()
	c.ICache.Policy = c.ICache.Policy.canonical()
	if c.Engine == InOrder {
		c.MSHREntries = 0
	}
	if len(c.Levels) > 0 {
		canon := make([]LevelSpec, len(c.Levels))
		for i, l := range c.Levels {
			l.Policy = l.Policy.canonical()
			canon[i] = l
		}
		c.Levels = canon
	} else {
		c.Levels = nil
	}
	return c
}

// canonical zeroes the PolicySpec fields the policy kind does not read.
func (p PolicySpec) canonical() PolicySpec {
	switch p.Kind {
	case PolicyStatic:
		return PolicySpec{Kind: PolicyStatic, StaticIndex: p.StaticIndex}
	case PolicyDynamic:
		p.StaticIndex = 0
		return p
	default:
		return PolicySpec{}
	}
}

// Key returns the canonical fingerprint of the config: the SHA-256 of
// its encoding (keyEnc: fixed-width little-endian integers and float
// bits, length-prefixed strings) in the field order below. The whole
// encoding is built in one fixed-size stack buffer and hashed with a
// single sha256.Sum256, and Canonical's normal form is applied while
// encoding instead of on a copy, so a config of up to three shared
// levels fingerprints without allocating; a longer encoding spills the
// buffer to the heap with the same bytes. TestKeyGolden pins the
// bytes, so an encoding change cannot land without a keyVersion bump.
func (c Config) Key() Key {
	var buf [keyBufBytes]byte
	e := keyEnc(buf[:0]).u64(keyVersion).
		str(c.Benchmark).
		u64(c.Instructions).
		u64(uint64(c.Engine)).
		// CPU pipeline.
		i(c.CPU.Width).
		i(c.CPU.ROBEntries).
		i(c.CPU.LSQEntries).
		u64(c.CPU.DecodeLatency).
		u64(c.CPU.MispredictPenalty).
		// L1s, then the shared hierarchy; cacheSpec canonicalizes every
		// level's policy.
		cacheSpec(c.DCache).
		cacheSpec(c.ICache).
		i(len(c.Levels))
	for i := range c.Levels {
		l := &c.Levels[i]
		e = e.cacheSpec(l.CacheSpec).
			u64(uint64(l.Precharge)).
			i(l.MSHREntries).
			i(l.WritebackEntries)
	}
	// The in-order engine forces a blocking d-cache: its MSHRs are inert.
	mshrs := c.MSHREntries
	if c.Engine == InOrder {
		mshrs = 0
	}
	e = e.i(mshrs).
		i(c.WritebackEntries).
		// Sampled execution (all zero for fully detailed runs; a partial
		// spec is invalid but keeps its own fingerprint so the cold-path
		// error memoizes under its own key).
		u64(c.Sampling.WarmupInstructions).
		u64(c.Sampling.DetailedInstructions).
		u64(c.Sampling.FastForwardInstructions).
		u64(c.Sampling.SkipInstructions).
		// Energy models.
		f64(c.Energy.PrechargePJPerBit).
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
	return sha256.Sum256(e)
}

// keyBufBytes sizes Key's stack buffer. The base config encodes to 611
// bytes and each further shared level adds 120, so three levels and a
// 100-byte benchmark name still fit.
const keyBufBytes = 1024

// Equal reports whether two configs are identical: every field equal,
// the hierarchy level by level, and the energy models bit for bit as
// Key encodes them (so +0 and -0 differ). Identical configs have equal
// Keys, which lets a caller holding one config's Key reuse it for an
// Equal config instead of hashing it — the experiment layer does, for
// the sweeps of one baseline — at a small fraction of Key's cost.
// TestConfigEqualCoversEveryField fails when a field is missing here.
func (c *Config) Equal(o *Config) bool {
	return c.Benchmark == o.Benchmark && c.Instructions == o.Instructions && c.Engine == o.Engine &&
		c.CPU == o.CPU && c.DCache == o.DCache && c.ICache == o.ICache &&
		slices.Equal(c.Levels, o.Levels) && c.MSHREntries == o.MSHREntries &&
		c.WritebackEntries == o.WritebackEntries && c.Sampling == o.Sampling &&
		sameEnergy(&c.Energy, &o.Energy) && sameCore(&c.Core, &o.Core)
}

// sameBits compares two floats as Key encodes them.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameEnergy(a, b *geometry.EnergyModel) bool {
	return sameBits(a.PrechargePJPerBit, b.PrechargePJPerBit) &&
		sameBits(a.BitlinePJPerBit, b.BitlinePJPerBit) &&
		sameBits(a.WordlinePJPerBit, b.WordlinePJPerBit) &&
		sameBits(a.SensePJPerBit, b.SensePJPerBit) &&
		sameBits(a.DecodePJPerSubarray, b.DecodePJPerSubarray) &&
		sameBits(a.ComparePJPerBit, b.ComparePJPerBit) &&
		sameBits(a.OutputPJPerBit, b.OutputPJPerBit) &&
		sameBits(a.ClockPJPerSubarray, b.ClockPJPerSubarray) &&
		sameBits(a.LeakagePJPerBytePerCycle, b.LeakagePJPerBytePerCycle)
}

func sameCore(a, b *energy.CoreEnergies) bool {
	return sameBits(a.DecodePJ, b.DecodePJ) &&
		sameBits(a.ROBWritePJ, b.ROBWritePJ) &&
		sameBits(a.LSQWritePJ, b.LSQWritePJ) &&
		sameBits(a.RegReadPJ, b.RegReadPJ) &&
		sameBits(a.RegWritePJ, b.RegWritePJ) &&
		sameBits(a.IntALUPJ, b.IntALUPJ) &&
		sameBits(a.FPALUPJ, b.FPALUPJ) &&
		sameBits(a.BpredPJ, b.BpredPJ) &&
		sameBits(a.BTBPJ, b.BTBPJ) &&
		sameBits(a.RASPJ, b.RASPJ) &&
		sameBits(a.ResultBusPJ, b.ResultBusPJ) &&
		sameBits(a.ClockPJ, b.ClockPJ)
}

// FrontKey fingerprints the config's shared simulation front-end: the
// projection of the config that determines workload generation and the
// engine's functional stepping (benchmark, instruction budget, engine
// kind, the full pipeline shape, and the sampling window schedule). Two
// configs with equal FrontKeys drive bit-identical functional streams
// through identical window boundaries and may therefore run as one gang
// (RunGang); everything outside the projection — cache geometries,
// resizing organizations and policies, hierarchy depth, MSHRs, energy
// models — is per-member state a gang evaluates independently.
//
// It is the KeyBuilder fingerprint of those fields in domain
// "sim.front", encoded on the stack like Key.
func (c Config) FrontKey() Key {
	var buf [256]byte
	e := keyEnc(buf[:0]).u64(keyVersion).
		str("sim.front").
		str(c.Benchmark).
		u64(c.Instructions).
		u64(uint64(c.Engine)).
		i(c.CPU.Width).
		i(c.CPU.ROBEntries).
		i(c.CPU.LSQEntries).
		u64(c.CPU.DecodeLatency).
		u64(c.CPU.MispredictPenalty).
		u64(c.Sampling.WarmupInstructions).
		u64(c.Sampling.DetailedInstructions).
		u64(c.Sampling.FastForwardInstructions).
		u64(c.Sampling.SkipInstructions)
	return sha256.Sum256(e)
}

// ShareKey fingerprints what a config's run shares with configs that
// differ from it only in the thresholds of its one dynamic policy: the
// Key of the config with that policy's MissBound, SizeBoundBytes and
// UpsizeHoldIntervals zeroed. Such configs make the same resize
// decisions until their controllers first disagree, so a gang runs
// them on one machine until then, and forks it there (see RunGang).
// Interval stays in the key: it sets the boundaries, and with them
// SizeTrace's length. With no dynamic policy, dynamic policies at two
// or more levels, or an interval a fork cannot take (forkLevel),
// ShareKey is Key.
func (c Config) ShareKey() Key {
	i := c.forkLevel()
	if i < 0 {
		return c.Key()
	}
	if i >= 2 {
		c.Levels = slices.Clone(c.Levels)
	}
	p := c.policyAt(i)
	p.MissBound, p.SizeBoundBytes, p.UpsizeHoldIntervals = 0, 0, 0
	return c.Key()
}

// dynamicLevel returns the position of the config's only dynamically
// resized cache in machine order — 0 the d-cache, 1 the i-cache, 2+i
// Levels[i] — or -1 unless exactly one cache is dynamic.
func (c *Config) dynamicLevel() int {
	at := -1
	for i := 0; i < 2+len(c.Levels); i++ {
		if c.policyAt(i).Kind != PolicyDynamic {
			continue
		}
		if at >= 0 {
			return -1
		}
		at = i
	}
	return at
}

// forkLevel is dynamicLevel for a cache whose interval is longer than
// forkReach: no instruction crosses two of its boundaries, and the arm
// for each falls after an access of its interval, so a gang can fork
// its followers' machine at each. It is -1 otherwise.
func (c *Config) forkLevel() int {
	at := c.dynamicLevel()
	if at < 0 || c.policyAt(at).Interval <= forkReach(at) {
		return -1
	}
	return at
}

// policyAt returns the policy of the cache at machine position i (see
// dynamicLevel).
func (c *Config) policyAt(i int) *PolicySpec {
	switch i {
	case 0:
		return &c.DCache.Policy
	case 1:
		return &c.ICache.Policy
	}
	return &c.Levels[i-2].Policy
}

// KeyBuilder accumulates explicitly ordered fields into a
// content-addressed fingerprint with the same encoding rules as
// Config.Key (fixed-width integers, length-prefixed strings, the shared
// keyVersion prefix). Higher layers use it to fingerprint values
// *derived from* configs — most prominently sweep-level artifacts in
// the run-orchestration layer, keyed by the fingerprints of every
// config the sweep would run — so one versioning scheme invalidates
// both per-config results and derived artifacts together.
//
// Fields are encoded into a block buffer inside the builder. A
// fingerprint whose fields fit the buffer (a sweep key, a warmup
// checkpoint key) is hashed with one sha256.Sum256 and, since the
// builder never leaks, costs no allocation at all; a longer one (a
// whole plan's) spills full blocks to a hash state allocated on the
// first overflow. The bytes hashed are the plain concatenation of the
// field encodings either way, unchanged byte for byte from the earlier
// field-at-a-time builder.
//
// A builder is single-use: construct with NewKeyBuilder, append fields,
// call Sum once.
type KeyBuilder struct {
	n     int // encoded bytes pending in block
	block [keyBlockBytes]byte
	spill *keySpill // nil until the fields outgrow block
}

// keySpill is a KeyBuilder's overflow path: the hash state and a copy
// of each full block handed to it. Hashing the copy, not the builder's
// own buffer, keeps the builder itself off the heap.
type keySpill struct {
	h     hash.Hash
	block [keyBlockBytes]byte
}

// keyBlockBytes is the builder's buffer: eight SHA-256 blocks.
const keyBlockBytes = 512

// NewKeyBuilder starts a fingerprint in a named domain; distinct
// domains never collide even over identical field sequences.
func NewKeyBuilder(domain string) *KeyBuilder {
	b := new(KeyBuilder)
	b.start(domain)
	return b
}

// start writes the prefix every fingerprint shares. It is out of line
// so NewKeyBuilder stays small enough to inline, which lets the
// builder live on its caller's stack.
func (b *KeyBuilder) start(domain string) { b.U64(keyVersion).Str(domain) }

// reserve returns an encoder appending at the end of the pending bytes,
// first handing them to the hash unless need more bytes fit behind them.
func (b *KeyBuilder) reserve(need int) keyEnc {
	if b.n+need > len(b.block) {
		b.flush()
	}
	return b.block[b.n:b.n]
}

// flush hands the pending bytes to the spill hash state.
func (b *KeyBuilder) flush() {
	if b.spill == nil {
		b.spill = &keySpill{h: sha256.New()}
	}
	n := copy(b.spill.block[:], b.block[:b.n])
	b.spill.h.Write(b.spill.block[:n])
	b.n = 0
}

// U64 appends an unsigned integer field.
func (b *KeyBuilder) U64(v uint64) *KeyBuilder { b.n += len(b.reserve(8).u64(v)); return b }

// Int appends a signed integer field.
func (b *KeyBuilder) Int(v int) *KeyBuilder { b.n += len(b.reserve(8).i(v)); return b }

// Str appends a string field (length-prefixed; never aliases).
func (b *KeyBuilder) Str(s string) *KeyBuilder {
	b.U64(uint64(len(s)))
	for len(s) > 0 {
		e := b.reserve(1)
		e = append(e, s[:min(len(s), cap(e))]...)
		b.n += len(e)
		s = s[len(e):]
	}
	return b
}

// RawKey appends another fingerprint (e.g. a Config.Key) as a field.
func (b *KeyBuilder) RawKey(k Key) *KeyBuilder {
	b.n += len(append(b.reserve(8+len(k)).u64(uint64(len(k))), k[:]...))
	return b
}

// Sum finalizes the fingerprint.
func (b *KeyBuilder) Sum() Key {
	if b.spill == nil {
		return sha256.Sum256(b.block[:b.n])
	}
	b.flush()
	// The spill block is free again: let the hash append the digest to it.
	var k Key
	copy(k[:], b.spill.h.Sum(b.spill.block[:0]))
	return k
}

// keyEnc appends fixed-width, field-order-stable encodings to a byte
// slice. Strings are length-prefixed so adjacent fields cannot alias.
// Each method returns the extended slice, so encodings chain.
type keyEnc []byte

func (e keyEnc) u64(v uint64) keyEnc { return binary.LittleEndian.AppendUint64(e, v) }

func (e keyEnc) i(v int) keyEnc { return e.u64(uint64(int64(v))) }

func (e keyEnc) f64(v float64) keyEnc { return e.u64(math.Float64bits(v)) }

func (e keyEnc) b(v bool) keyEnc {
	if v {
		return e.u64(1)
	}
	return e.u64(0)
}

func (e keyEnc) str(s string) keyEnc { return append(e.u64(uint64(len(s))), s...) }

// cacheSpec encodes one cache spec (an L1 or a shared level's core),
// with the policy in canonical form.
func (e keyEnc) cacheSpec(s CacheSpec) keyEnc {
	p := s.Policy.canonical()
	return e.geometry(s.Geom).
		u64(uint64(s.Org)).
		u64(uint64(p.Kind)).
		i(p.StaticIndex).
		u64(p.Interval).
		u64(p.MissBound).
		i(p.SizeBoundBytes).
		i(p.UpsizeHoldIntervals).
		b(s.AblationFullPrecharge).
		b(s.AblationFreeFlush)
}

func (e keyEnc) geometry(g geometry.Geometry) keyEnc {
	return e.i(g.SizeBytes).i(g.Assoc).i(g.BlockBytes).i(g.SubarrayBytes)
}
