package core

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"gnsslna/internal/device"
	"gnsslna/internal/rfpassive"
)

// EvalMemo is a bounded, content-hashed memo of band evaluations: the PR-4
// geometry cache generalized to whole Designer.Evaluate results. The key is
// an FNV-1a digest of everything the evaluation depends on — the spec grid,
// the system impedance, the substrate, the builder's passive-network values
// and the device variant (every DC, capacitance, parasitic and noise
// parameter) — paired with the exact design vector, so a hit can only occur
// when a bit-identical evaluation would be recomputed. Values are the
// immutable Evaluation structs (callers must not mutate Points — all
// in-tree consumers only read them); hits return the stored value without
// rebuilding the amplifier, which makes repeated-spec traffic (optimizer
// restarts, job-server retries, identical tenant requests) cache hits
// instead of full sweeps.
//
// The memo is safe for concurrent use and shared: NewDesigner attaches the
// process-wide default, so every serve worker attempt, sweep and optimizer
// run in the process shares one LRU. Because evaluations are deterministic,
// a hit is bit-identical to recomputation — worker counts and restarts
// cannot change Results.
//
// Storage is sharded by key so the parallel evaluation fan-out (EvalPool at
// NumCPU width, each evaluation tens of microseconds) does not serialize on
// one mutex: each shard is an independent mutex + map + LRU list, and the
// capacity bound is split across shards.
//
// Admission is gated by a doorkeeper: a key is only stored on its second
// miss. Optimizer populations evaluate almost every design exactly once;
// admitting those single-shot candidates would turn the LRU into a pure
// churn pump (allocate entry, retain Points, evict, collect) whose GC
// pressure measurably slows the parallel fan-out. The doorkeeper records
// only the key's hash on the first miss, so one-shot traffic costs eight
// bytes, while genuinely repeated evaluations (serve retries, identical
// tenant specs, optimizer restarts) are admitted on the second sighting and
// hit from the third on.
type EvalMemo struct {
	shards [memoShardCount]memoShard

	hits, misses, evictions atomic.Int64
}

// memoShardCount is a power of two so shard selection is a mask.
const memoShardCount = 16

type memoShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[memoKey]*list.Element
	order    list.List // front = most recently used

	// seen holds the doorkeeper hashes of keys missed once. Cleared
	// wholesale when it outgrows its bound (a hash collision admits a key
	// one miss early — harmless).
	seen map[uint64]struct{}
}

// memoKey identifies one evaluation: the context digest plus the exact
// design vector. Keeping the design out of the hash (compared with ==)
// removes the dominant collision source — distinct designs under the same
// spec — entirely.
type memoKey struct {
	ctx    uint64
	design Design
}

type memoEntry struct {
	key memoKey
	ev  Evaluation
}

// NewEvalMemo returns a memo bounded to roughly capacity entries (LRU
// eviction per shard, capacity split evenly across shards). Capacity <= 0
// disables storage (every lookup misses).
func NewEvalMemo(capacity int) *EvalMemo {
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + memoShardCount - 1) / memoShardCount
	}
	m := &EvalMemo{}
	for i := range m.shards {
		m.shards[i].capacity = perShard
		m.shards[i].entries = make(map[memoKey]*list.Element, perShard)
		m.shards[i].seen = make(map[uint64]struct{})
	}
	return m
}

// canonBits returns the hashing bit pattern of v with the two IEEE-754
// zeros collapsed onto +0.0. The shard maps and the memoKey comparison use
// Go's ==, which treats -0.0 and +0.0 as equal; the hash must agree, or a
// design touching an optimizer bound at zero would hash (and shard, and
// doorkeep) differently from its +0.0-equal twin — duplicate entries in two
// shards and permanently missed hits. NaN needs no canonicalization here:
// NaN-bearing designs never reach the memo (Evaluate's x == x gate rejects
// them, because NaN keys could never hit) and NaN context fields hash by
// whatever bit pattern the deterministic pipelines propagate, which is
// stable run to run.
func canonBits(v float64) uint64 {
	if v == 0 {
		v = 0 // -0.0 == 0 is true; the assignment rewrites it to +0.0
	}
	return math.Float64bits(v)
}

// keyHash remixes the context digest with the design vector's bits
// (word-granularity FNV-1a, zero-canonicalized). The top bits select the
// shard; the full value feeds the shard's doorkeeper.
func keyHash(key memoKey) uint64 {
	h := key.ctx
	d := key.design
	h = (h ^ canonBits(d.Vgs)) * fnvPrime64
	h = (h ^ canonBits(d.Vds)) * fnvPrime64
	h = (h ^ canonBits(d.LIn)) * fnvPrime64
	h = (h ^ canonBits(d.LDegen)) * fnvPrime64
	h = (h ^ canonBits(d.LOut)) * fnvPrime64
	h = (h ^ canonBits(d.COut)) * fnvPrime64
	return h
}

// shard selects by the hash's top bits (multiplication mixes entropy
// upward), so designs under one context — the common case inside a single
// optimizer run — spread evenly.
func (m *EvalMemo) shard(h uint64) *memoShard {
	return &m.shards[h>>(64-4)]
}

// defaultEvalMemo is the process-wide memo NewDesigner attaches: serve
// workers, experiment suites and CLI runs share it without further wiring.
var defaultEvalMemo = NewEvalMemo(4096)

// DefaultEvalMemo returns the process-wide shared memo.
func DefaultEvalMemo() *EvalMemo { return defaultEvalMemo }

// lookup returns the memoized evaluation for key, refreshing its recency.
func (m *EvalMemo) lookup(key memoKey) (Evaluation, bool) {
	if m == nil {
		return Evaluation{}, false
	}
	s := m.shard(keyHash(key))
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		m.misses.Add(1)
		return Evaluation{}, false
	}
	s.order.MoveToFront(el)
	ev := el.Value.(*memoEntry).ev
	s.mu.Unlock()
	m.hits.Add(1)
	return ev, true
}

// store memoizes a successful evaluation once its key has been missed
// before (doorkeeper admission), evicting the least recently used entry
// beyond the shard's capacity.
func (m *EvalMemo) store(key memoKey, ev Evaluation) {
	if m == nil {
		return
	}
	h := keyHash(key)
	s := m.shard(h)
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		// A concurrent evaluation of the same design already landed; keep it
		// (deterministic evaluation makes the two values identical).
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	if _, seen := s.seen[h]; !seen {
		// First sighting: record the hash and decline admission. The bound
		// keeps one-shot floods from growing the doorkeeper without limit.
		if len(s.seen) >= 8*s.capacity {
			clear(s.seen)
		}
		s.seen[h] = struct{}{}
		s.mu.Unlock()
		return
	}
	delete(s.seen, h)
	s.entries[key] = s.order.PushFront(&memoEntry{key: key, ev: ev})
	var evicted int64
	for s.order.Len() > s.capacity {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.entries, back.Value.(*memoEntry).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		m.evictions.Add(evicted)
	}
}

// MemoStats is a point-in-time snapshot of the memo counters.
type MemoStats struct {
	// Hits and Misses count lookups; Evictions counts LRU removals.
	Hits, Misses, Evictions int64
	// Size is the current number of memoized evaluations.
	Size int
}

// Stats snapshots the counters (nil-safe).
func (m *EvalMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	size := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		size += s.order.Len()
		s.mu.Unlock()
	}
	return MemoStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
		Size:      size,
	}
}

// memoCtx is the comparable snapshot of everything (besides the design
// vector) an evaluation depends on. Comparing snapshots is how the cached
// context digest is invalidated without re-hashing per call; the device is
// keyed by pointer here (swap in a fresh *PHEMT to change parameters, as
// the variant constructors do) while its full content goes into the digest.
type memoCtx struct {
	spec Spec
	z0   float64
	dev  *device.PHEMT
	sub  rfpassive.Substrate

	gateBiasR, drainRailR, gateDampR, drainDampR, stabR, stabL float64

	ideal bool
}

// ctxDigest pairs a snapshot with its FNV-1a digest.
type ctxDigest struct {
	ctx  memoCtx
	hash uint64
}

// snapshotCtx captures the designer's current evaluation context, or false
// when there is no builder/device to key on.
func (d *Designer) snapshotCtx() (memoCtx, bool) {
	b := d.Builder
	if b == nil || b.Dev == nil {
		return memoCtx{}, false
	}
	return memoCtx{
		spec:       d.Spec,
		z0:         d.z0(),
		dev:        b.Dev,
		sub:        b.Sub,
		gateBiasR:  b.GateBiasR,
		drainRailR: b.DrainRailR,
		gateDampR:  b.GateDampR,
		drainDampR: b.DrainDampR,
		stabR:      b.StabR,
		stabL:      b.StabL,
		ideal:      b.IdealPassives,
	}, true
}

// ctxHash returns the FNV-1a digest of the current evaluation context,
// memoized against the comparable snapshot so the memo hit path stays
// allocation-free.
func (d *Designer) ctxHash() (uint64, bool) {
	ctx, ok := d.snapshotCtx()
	if !ok {
		return 0, false
	}
	if c := d.ctxKey.Load(); c != nil && c.ctx == ctx {
		return c.hash, true
	}
	h := hashCtx(ctx)
	d.ctxKey.Store(&ctxDigest{ctx: ctx, hash: h})
	return h, true
}

// FNV-1a, 64 bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// fnvF64 folds a float64 into the digest with the same zero
// canonicalization as keyHash (see canonBits): context snapshots are
// compared with ==, so -0.0 and +0.0 contexts must share one digest.
func fnvF64(h uint64, v float64) uint64 { return fnvU64(h, canonBits(v)) }

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	// Length terminator keeps concatenated strings from colliding.
	return fnvU64(h, uint64(len(s)))
}

func fnvBool(h uint64, v bool) uint64 {
	if v {
		return fnvByte(h, 1)
	}
	return fnvByte(h, 0)
}

// hashCtx digests the full evaluation context content. Unlike the snapshot,
// the device is hashed by value — name, DC model kind and parameter vector,
// capacitance model, intrinsics, extrinsics and noise temperatures — so two
// builders holding identical device content share memo entries.
// TestHashCtxCoversEveryField keeps the field list complete.
func hashCtx(c memoCtx) uint64 {
	h := uint64(fnvOffset64)
	// Spec (the grid derives from these fields alone).
	h = fnvF64(h, c.spec.FLow)
	h = fnvF64(h, c.spec.FHigh)
	h = fnvU64(h, uint64(int64(c.spec.NPoints)))
	h = fnvF64(h, c.spec.NFMaxDB)
	h = fnvF64(h, c.spec.GTMinDB)
	h = fnvF64(h, c.spec.S11MaxDB)
	h = fnvF64(h, c.spec.S22MaxDB)
	h = fnvF64(h, c.spec.StabLow)
	h = fnvF64(h, c.spec.StabHigh)
	h = fnvF64(h, c.spec.PdcMaxW)
	h = fnvF64(h, c.z0)
	// Substrate.
	h = fnvF64(h, c.sub.Er)
	h = fnvF64(h, c.sub.H)
	h = fnvF64(h, c.sub.TanD)
	h = fnvF64(h, c.sub.Rho)
	h = fnvF64(h, c.sub.Temp)
	// Builder passives.
	h = fnvF64(h, c.gateBiasR)
	h = fnvF64(h, c.drainRailR)
	h = fnvF64(h, c.gateDampR)
	h = fnvF64(h, c.drainDampR)
	h = fnvF64(h, c.stabR)
	h = fnvF64(h, c.stabL)
	h = fnvBool(h, c.ideal)
	// Device variant.
	dev := c.dev
	h = fnvStr(h, dev.Name)
	h = fnvStr(h, dev.DC.Name())
	for _, p := range dev.DC.Params() {
		h = fnvF64(h, p)
	}
	h = fnvF64(h, dev.Caps.Cgs0)
	h = fnvF64(h, dev.Caps.CgsPinch)
	h = fnvF64(h, dev.Caps.CgsVmid)
	h = fnvF64(h, dev.Caps.CgsVscale)
	h = fnvF64(h, dev.Caps.Cgd0)
	h = fnvF64(h, dev.Caps.CgdVscale)
	h = fnvF64(h, dev.Caps.Cds)
	h = fnvF64(h, dev.Ri)
	h = fnvF64(h, dev.Tau)
	h = fnvF64(h, dev.Ext.Rg)
	h = fnvF64(h, dev.Ext.Rs)
	h = fnvF64(h, dev.Ext.Rd)
	h = fnvF64(h, dev.Ext.Lg)
	h = fnvF64(h, dev.Ext.Ls)
	h = fnvF64(h, dev.Ext.Ld)
	h = fnvF64(h, dev.Ext.Cpg)
	h = fnvF64(h, dev.Ext.Cpd)
	h = fnvF64(h, dev.Noise.Tg)
	h = fnvF64(h, dev.Noise.Td0)
	h = fnvF64(h, dev.Noise.TdSlope)
	h = fnvF64(h, dev.Noise.Ta)
	return h
}
