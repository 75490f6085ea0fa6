package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

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
// FrontKey for the interval-sampled execution mode.
const keyVersion = 3

// Canonical returns the config with semantically inert fields zeroed
// and the hierarchy in normal form, so that configs describing
// identical simulations fingerprint identically:
//
//   - policy parameters not read by the configured policy kind (a static
//     policy ignores the dynamic controller's knobs and vice versa), at
//     every level of the hierarchy;
//   - d-cache MSHRs under the in-order engine, which forces a blocking
//     d-cache regardless of the configured entry count;
//   - the deprecated L2Geom, folded into its equivalent one-level
//     Levels spec (see Hierarchy), so both spellings share a key.
//
// Run never inspects the zeroed fields, so Canonical is behaviour
// preserving by construction.
func (c Config) Canonical() Config {
	c.DCache.Policy = c.DCache.Policy.canonical()
	c.ICache.Policy = c.ICache.Policy.canonical()
	if c.Engine == InOrder {
		c.MSHREntries = 0
	}
	// A config that sets both Levels and L2Geom is invalid (Run rejects
	// it); keep the conflicting L2Geom so its fingerprint can never
	// alias the valid Levels-only config — otherwise a warm memo/store
	// would serve the valid config's result where the cold path errors.
	conflict := len(c.Levels) > 0 && c.L2Geom != (geometry.Geometry{})
	levels := c.Hierarchy()
	if len(levels) > 0 {
		canon := make([]LevelSpec, len(levels))
		for i, l := range levels {
			l.Policy = l.Policy.canonical()
			canon[i] = l
		}
		c.Levels = canon
	} else {
		c.Levels = nil
	}
	if !conflict {
		c.L2Geom = geometry.Geometry{}
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
// buffer to the heap with the same bytes. The bytes are exactly those
// keyVersion 3 has always hashed, so stores written by earlier builds
// keep hitting (TestKeyGolden pins them).
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
		// L1s, then the shared hierarchy with a deprecated L2Geom folded
		// in (Hierarchy); cacheSpec canonicalizes every level's policy.
		cacheSpec(c.DCache).
		cacheSpec(c.ICache)
	levels := c.Hierarchy()
	e = e.i(len(levels))
	for i := range levels {
		l := &levels[i]
		e = e.cacheSpec(l.CacheSpec).
			u64(uint64(l.Precharge)).
			i(l.MSHREntries).
			i(l.WritebackEntries)
	}
	// All zeros for every valid config; non-zero only for the invalid
	// Levels+L2Geom conflict, whose cold-path error must memoize under
	// its own key (see Canonical).
	var conflict geometry.Geometry
	if len(c.Levels) > 0 {
		conflict = c.L2Geom
	}
	// The in-order engine forces a blocking d-cache: its MSHRs are inert.
	mshrs := c.MSHREntries
	if c.Engine == InOrder {
		mshrs = 0
	}
	e = e.geometry(conflict).
		i(mshrs).
		i(c.WritebackEntries).
		// Sampled execution (all zero for fully detailed runs; a partial
		// spec is invalid but keeps its own fingerprint so the cold-path
		// error memoizes under its own key, like the Levels+L2Geom
		// conflict).
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

// keyBufBytes sizes Key's stack buffer. The base config encodes to 643
// bytes and each further shared level adds 120, so three levels and a
// 100-byte benchmark name still fit.
const keyBufBytes = 1024

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

// KeyBuilder accumulates explicitly ordered fields into a
// content-addressed fingerprint with the same encoding rules as
// Config.Key (fixed-width integers, length-prefixed strings, the shared
// keyVersion prefix). Higher layers use it to fingerprint values
// *derived from* configs — most prominently sweep-level artifacts in
// the run-orchestration layer, keyed by the fingerprints of every
// config the sweep would run — so one versioning scheme invalidates
// both per-config results and derived artifacts together.
//
// Fields are encoded into a block buffer inside the builder and handed
// to the hash a full block at a time, so appending a field never
// allocates; a fingerprint costs the builder and its hash state. The
// bytes hashed are the plain concatenation of the field encodings,
// unchanged byte for byte from the earlier field-at-a-time builder.
//
// A builder is single-use: construct with NewKeyBuilder, append fields,
// call Sum once.
type KeyBuilder struct {
	h     hash.Hash
	n     int // encoded bytes pending in block
	block [keyBlockBytes]byte
}

// keyBlockBytes is the builder's buffer: eight SHA-256 blocks.
const keyBlockBytes = 512

// NewKeyBuilder starts a fingerprint in a named domain; distinct
// domains never collide even over identical field sequences.
func NewKeyBuilder(domain string) *KeyBuilder {
	b := &KeyBuilder{h: sha256.New()}
	return b.U64(keyVersion).Str(domain)
}

// reserve returns an encoder appending at the end of the pending bytes,
// first handing them to the hash unless need more bytes fit behind them.
func (b *KeyBuilder) reserve(need int) keyEnc {
	if b.n+need > len(b.block) {
		b.h.Write(b.block[:b.n])
		b.n = 0
	}
	return b.block[b.n:b.n]
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
	b.h.Write(b.block[:b.n])
	b.n = 0
	// The block is free again: let the hash append the digest to it.
	var k Key
	copy(k[:], b.h.Sum(b.block[:0]))
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
