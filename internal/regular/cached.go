package regular

import (
	"sync"

	"repro/internal/wterm"
)

// GluingID is a dense identifier for an interned gluing signature.
type GluingID int32

// DefaultComposeCap bounds the ⊙_f memo table. A bounded-treedepth run
// needs |gluings| · |C|² entries at most, far below this; the cap exists so
// adversarial inputs cannot grow the memo without bound.
const DefaultComposeCap = 1 << 20

// CacheStats counts cache traffic for one Cached instance. Counters are
// plain totals so per-node stats can be summed into a run aggregate.
type CacheStats struct {
	Classes          int   `json:"classes"`           // distinct interned classes
	Gluings          int   `json:"gluings"`           // distinct gluing signatures
	ComposeHits      int64 `json:"compose_hits"`      // memoized ⊙_f lookups served
	ComposeMisses    int64 `json:"compose_misses"`    // ⊙_f computed and inserted
	ComposeEntries   int   `json:"compose_entries"`   // live memo entries
	ComposeEvictions int64 `json:"compose_evictions"` // entries dropped at the cap
	AcceptHits       int64 `json:"accept_hits"`
	AcceptMisses     int64 `json:"accept_misses"`
	SelectionHits    int64 `json:"selection_hits"`
	SelectionMisses  int64 `json:"selection_misses"`
	DecodeHits       int64 `json:"decode_hits"` // wire keys resolved without DecodeClass
	DecodeMisses     int64 `json:"decode_misses"`
}

// Add returns the field-wise sum of two stat records (gauges take the max).
func (s CacheStats) Add(o CacheStats) CacheStats {
	s.ComposeHits += o.ComposeHits
	s.ComposeMisses += o.ComposeMisses
	s.ComposeEvictions += o.ComposeEvictions
	s.AcceptHits += o.AcceptHits
	s.AcceptMisses += o.AcceptMisses
	s.SelectionHits += o.SelectionHits
	s.SelectionMisses += o.SelectionMisses
	s.DecodeHits += o.DecodeHits
	s.DecodeMisses += o.DecodeMisses
	if o.Classes > s.Classes {
		s.Classes = o.Classes
	}
	if o.Gluings > s.Gluings {
		s.Gluings = o.Gluings
	}
	if o.ComposeEntries > s.ComposeEntries {
		s.ComposeEntries = o.ComposeEntries
	}
	return s
}

// ComposeHitRate returns the fraction of ⊙_f calls served from the memo.
func (s CacheStats) ComposeHitRate() float64 {
	total := s.ComposeHits + s.ComposeMisses
	if total == 0 {
		return 0
	}
	return float64(s.ComposeHits) / float64(total)
}

// LookupHitRate returns the fraction of all memo lookups (compose, accept,
// selection, decode) served without touching the wrapped predicate.
func (s CacheStats) LookupHitRate() float64 {
	hits := s.ComposeHits + s.AcceptHits + s.SelectionHits + s.DecodeHits
	total := hits + s.ComposeMisses + s.AcceptMisses + s.SelectionMisses + s.DecodeMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

type composeKey struct {
	g    GluingID
	a, b ClassID
}

// composeVal is NoClass when the pair is incompatible under the gluing.
type composeVal struct{ id ClassID }

// cacheCore holds all memoized state: the interner, the gluing table, the
// two-generation ⊙_f memo, and the dense per-class Accepting/Selection
// memos. A private core (mu nil) is owned by exactly one Cached and is
// accessed without synchronization; a shared core (mu set) is owned by a
// Shared and accessed concurrently through per-goroutine handles.
type cacheCore struct {
	pred Predicate
	// mu, when non-nil, guards every field below. Lookups take the read
	// lock; interning, memo inserts, and calls into the wrapped predicate
	// take the write lock (predicates need only be single-threaded safe).
	mu *sync.RWMutex

	in *Interner

	// gluingIDs and cur are made on first insert: a protocol node with no
	// children never glues, and a private cache per node is the common
	// case, so the empty maps would be pure per-node overhead.
	gluingIDs map[string]GluingID
	gluings   []wterm.Gluing

	// Compose memo in two generations (segments): lookups consult cur then
	// prev; inserts go to cur. When cur fills half the cap, the prev segment
	// is dropped whole — a deterministic eviction (no map-iteration order
	// involved) that sheds at most half the memo, so sustained workloads see
	// a sliding window of recent compositions instead of the periodic
	// latency cliff a full flush caused.
	cur, prev  map[composeKey]composeVal
	composeCap int

	// Dense per-ClassID memos, grown on demand.
	accept []uint8 // 0 unknown, 1 false, 2 true
	sel    []Selection
	selOK  []bool

	// evictions counts entries dropped at the cap — incremented exactly once
	// per dropped entry, at the rotation that drops its whole segment.
	evictions int64
}

func newCacheCore(pred Predicate) *cacheCore {
	return &cacheCore{
		pred:       pred,
		in:         NewInterner(),
		composeCap: DefaultComposeCap,
	}
}

// segCap is the per-generation entry bound: half the configured cap, so the
// two live generations together never exceed it.
func (k *cacheCore) segCap() int {
	half := k.composeCap / 2
	if half < 1 {
		half = 1
	}
	return half
}

// lookupCompose consults both generations; the caller holds the appropriate
// lock in shared mode.
//
//dmclint:requires-lock mu
func (k *cacheCore) lookupCompose(key composeKey) (composeVal, bool) {
	if v, ok := k.cur[key]; ok {
		return v, true
	}
	v, ok := k.prev[key]
	return v, ok
}

// insertCompose stores a freshly computed entry, rotating the generations at
// the cap. The caller holds the write lock in shared mode.
//
//dmclint:requires-lock mu
func (k *cacheCore) insertCompose(key composeKey, v composeVal) {
	switch {
	case k.cur == nil:
		k.cur = make(map[composeKey]composeVal)
	case len(k.cur) >= k.segCap():
		k.evictions += int64(len(k.prev))
		k.prev = k.cur
		k.cur = make(map[composeKey]composeVal, len(k.prev))
	}
	k.cur[key] = v
}

// liveCompose is the current memo size across both generations; the caller
// holds at least a read lock in shared mode.
//
//dmclint:requires-lock mu
func (k *cacheCore) liveCompose() int { return len(k.cur) + len(k.prev) }

// Cached wraps a Predicate with an interner and deterministic memoization of
// the expensive calls: Compose per (gluing signature, ClassID, ClassID),
// Accepting and Selection per ClassID, and wire decoding per key. Because
// Predicate implementations are required to be deterministic functions of
// their arguments, replaying a memoized result is observationally identical
// to recomputing it — cached and uncached runs produce byte-identical tables
// regardless of hit pattern or evictions.
//
// Cached itself implements Predicate, so it is a drop-in wrapper for the
// map-based fold functions; the dense Table algebra in dense.go (Base,
// Fold, ReduceAccepting) skips the string keys entirely and is the fast
// path.
//
// A Cached built by NewCached owns its memo state privately and is not safe
// for concurrent use; give each goroutine (each simulated node) its own
// instance. A Cached returned by Shared.Handle shares the process-lifetime
// memo state of its Shared, is safe to use from one goroutine at a time, and
// any number of handles may run concurrently.
type Cached struct {
	*cacheCore

	// sh points back to the owning Shared for handles, so global counters
	// can be maintained alongside the handle-local ones (nil for private
	// caches).
	sh *Shared

	// Fold scratch: slot[id] = output index in the fold in progress, valid
	// when stamp[id] == epoch. Reusing it across folds keeps the inner loop
	// free of map operations and allocations. Always handle-local.
	slot  []int32
	stamp []uint32
	epoch uint32

	// stats counts this handle's own traffic (never shared, so reads and
	// writes need no synchronization).
	stats CacheStats
}

var _ Predicate = (*Cached)(nil)

// NewCached wraps pred with a fresh private interner and empty memo tables.
func NewCached(pred Predicate) *Cached {
	return &Cached{cacheCore: newCacheCore(pred)}
}

// SetComposeCap overrides the compose-memo entry bound (n <= 0 restores the
// default). The bound is enforced per generation at n/2, so at most n
// entries are ever live and at most n/2 drop in one eviction.
func (c *Cached) SetComposeCap(n int) {
	if n <= 0 {
		n = DefaultComposeCap
	}
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.composeCap = n
}

// Predicate returns the wrapped predicate.
func (c *Cached) Predicate() Predicate { return c.pred }

// Interner exposes the class interner (ID <-> key/class lookups). It is only
// safe to use directly on a private Cached; shared handles must go through
// the locked accessors (KeyOf, ClassOf, LookupKey).
func (c *Cached) Interner() *Interner { return c.in }

// Stats returns a snapshot of this instance's counters. For a private Cached
// the gauges describe the whole cache; for a shared handle the counters
// describe this handle's traffic only and ComposeEvictions is reported as
// zero — evictions happen once at the shared core and are reported by
// Shared.Stats, so summing handle stats never double-counts them.
func (c *Cached) Stats() CacheStats {
	s := c.stats
	if c.mu != nil {
		c.mu.RLock()
		s.Classes = c.in.Len()
		s.Gluings = len(c.gluings)
		s.ComposeEntries = c.liveCompose()
		c.mu.RUnlock()
		return s
	}
	s.Classes = c.in.Len()
	s.Gluings = len(c.gluings)
	s.ComposeEntries = c.liveCompose()
	s.ComposeEvictions = c.evictions
	return s
}

// GluingKey returns the canonical byte signature of a gluing: (N1, N2, rows)
// little-endian. Two gluings compose identically iff their signatures match.
func GluingKey(f wterm.Gluing) string {
	b := make([]byte, 0, 4+4*len(f.Rows))
	b = append(b, byte(f.N1), byte(f.N1>>8), byte(f.N2), byte(f.N2>>8))
	for _, row := range f.Rows {
		b = append(b, byte(row[0]), byte(row[0]>>8), byte(row[1]), byte(row[1]>>8))
	}
	return string(b)
}

// InternGluing interns f's signature and returns its dense ID.
func (c *Cached) InternGluing(f wterm.Gluing) GluingID {
	key := GluingKey(f)
	if c.mu == nil {
		return c.internGluingLocked(key, f)
	}
	c.mu.RLock()
	id, ok := c.gluingIDs[key]
	c.mu.RUnlock()
	if ok {
		return id
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.internGluingLocked(key, f)
}

// internGluingLocked assigns (or finds) the dense ID for a gluing key. The
// caller holds the write lock in shared mode.
//
//dmclint:requires-lock mu
func (c *Cached) internGluingLocked(key string, f wterm.Gluing) GluingID {
	if id, ok := c.gluingIDs[key]; ok {
		return id
	}
	id := GluingID(len(c.gluings))
	if c.gluingIDs == nil {
		c.gluingIDs = make(map[string]GluingID)
	}
	c.gluingIDs[key] = id
	c.gluings = append(c.gluings, f)
	return id
}

// Intern interns a class and returns its ID.
func (c *Cached) Intern(cl Class) ClassID {
	if c.mu == nil {
		return c.in.Intern(cl)
	}
	key := cl.Key()
	c.mu.RLock()
	id, ok := c.in.Lookup(key)
	c.mu.RUnlock()
	if ok {
		return id
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.in.InternKeyed(key, cl)
}

// KeyOf returns the canonical key for an interned ID (the locked counterpart
// of Interner().Key).
func (c *Cached) KeyOf(id ClassID) string {
	if c.mu == nil {
		return c.in.Key(id)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.in.Key(id)
}

// ClassOf returns the stored representative for an interned ID (the locked
// counterpart of Interner().Class).
func (c *Cached) ClassOf(id ClassID) Class {
	if c.mu == nil {
		return c.in.Class(id)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.in.Class(id)
}

// LookupKey resolves a canonical key to its interned ID, if any (the locked
// counterpart of Interner().Lookup).
func (c *Cached) LookupKey(key string) (ClassID, bool) {
	if c.mu == nil {
		return c.in.Lookup(key)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.in.Lookup(key)
}

// InternWire resolves a class wire encoding to an ID. Keys double as the
// wire format, so an encoding seen before resolves without calling
// DecodeClass at all — the fast path for repeated table entries arriving
// from children (and, for shared caches, from earlier requests).
func (c *Cached) InternWire(data []byte) (ClassID, error) {
	if c.mu == nil {
		if id, ok := c.in.Lookup(string(data)); ok {
			c.stats.DecodeHits++
			return id, nil
		}
		c.stats.DecodeMisses++
		cl, err := c.pred.DecodeClass(data)
		if err != nil {
			return NoClass, err
		}
		return c.in.Intern(cl), nil
	}
	c.mu.RLock()
	id, ok := c.in.Lookup(string(data))
	c.mu.RUnlock()
	if ok {
		c.stats.DecodeHits++
		c.sh.decodeHits.Add(1)
		return id, nil
	}
	c.stats.DecodeMisses++
	c.sh.decodeMisses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.in.Lookup(string(data)); ok {
		// Another handle decoded the same bytes while we waited.
		return id, nil
	}
	cl, err := c.pred.DecodeClass(data)
	if err != nil {
		return NoClass, err
	}
	return c.in.Intern(cl), nil
}

// ComposeIDs is the memoized update function ⊙_f on interned operands. The
// boolean mirrors Predicate.Compose: false means the pair is incompatible
// under the gluing (also memoized).
func (c *Cached) ComposeIDs(g GluingID, a, b ClassID) (ClassID, bool, error) {
	key := composeKey{g: g, a: a, b: b}
	if c.mu == nil {
		if v, ok := c.lookupCompose(key); ok {
			c.stats.ComposeHits++
			return v.id, v.id != NoClass, nil
		}
		c.stats.ComposeMisses++
		return c.composeMissLocked(key)
	}
	c.mu.RLock()
	v, ok := c.lookupCompose(key)
	c.mu.RUnlock()
	if ok {
		c.stats.ComposeHits++
		c.sh.composeHits.Add(1)
		return v.id, v.id != NoClass, nil
	}
	c.stats.ComposeMisses++
	c.sh.composeMisses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.lookupCompose(key); ok {
		// Another handle computed the same entry while we waited; the result
		// is identical either way (Compose is deterministic), so serve it
		// without re-deriving.
		return v.id, v.id != NoClass, nil
	}
	return c.composeMissLocked(key)
}

// composeMissLocked computes, interns, and memoizes one ⊙_f entry. The
// caller holds the write lock in shared mode (the wrapped predicate is only
// ever called single-threaded).
//
//dmclint:requires-lock mu
func (c *Cached) composeMissLocked(key composeKey) (ClassID, bool, error) {
	cl, ok, err := c.pred.Compose(c.gluings[key.g], c.in.Class(key.a), c.in.Class(key.b))
	if err != nil {
		return NoClass, false, err
	}
	v := composeVal{id: NoClass}
	if ok {
		v.id = c.in.Intern(cl)
	}
	c.insertCompose(key, v)
	return v.id, ok, nil
}

// AcceptingID is the memoized acceptance test.
func (c *Cached) AcceptingID(id ClassID) (bool, error) {
	if c.mu == nil {
		c.growClassMemos()
		if v := c.accept[id]; v != 0 {
			c.stats.AcceptHits++
			return v == 2, nil
		}
		c.stats.AcceptMisses++
		return c.acceptMissLocked(id)
	}
	c.mu.RLock()
	var v uint8
	if int(id) < len(c.accept) {
		v = c.accept[id]
	}
	c.mu.RUnlock()
	if v != 0 {
		c.stats.AcceptHits++
		c.sh.acceptHits.Add(1)
		return v == 2, nil
	}
	c.stats.AcceptMisses++
	c.sh.acceptMisses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.growClassMemos()
	if v := c.accept[id]; v != 0 {
		return v == 2, nil
	}
	return c.acceptMissLocked(id)
}

// acceptMissLocked computes and memoizes one Accepting entry. The caller
// holds the write lock in shared mode.
//
//dmclint:requires-lock mu
func (c *Cached) acceptMissLocked(id ClassID) (bool, error) {
	ok, err := c.pred.Accepting(c.in.Class(id))
	if err != nil {
		return false, err
	}
	if ok {
		c.accept[id] = 2
	} else {
		c.accept[id] = 1
	}
	return ok, nil
}

// SelectionID is the memoized selection decoding.
func (c *Cached) SelectionID(id ClassID) (Selection, error) {
	if c.mu == nil {
		c.growClassMemos()
		if c.selOK[id] {
			c.stats.SelectionHits++
			return c.sel[id], nil
		}
		c.stats.SelectionMisses++
		return c.selectionMissLocked(id)
	}
	c.mu.RLock()
	var sel Selection
	ok := false
	if int(id) < len(c.selOK) && c.selOK[id] {
		sel, ok = c.sel[id], true
	}
	c.mu.RUnlock()
	if ok {
		c.stats.SelectionHits++
		c.sh.selectionHits.Add(1)
		return sel, nil
	}
	c.stats.SelectionMisses++
	c.sh.selectionMisses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.growClassMemos()
	if c.selOK[id] {
		return c.sel[id], nil
	}
	return c.selectionMissLocked(id)
}

// selectionMissLocked computes and memoizes one Selection entry. The caller
// holds the write lock in shared mode.
//
//dmclint:requires-lock mu
func (c *Cached) selectionMissLocked(id ClassID) (Selection, error) {
	sel, err := c.pred.Selection(c.in.Class(id))
	if err != nil {
		return Selection{}, err
	}
	c.sel[id] = sel
	c.selOK[id] = true
	return sel, nil
}

// growClassMemos extends the dense per-class memo slices to cover every
// interned ID. The caller holds the write lock in shared mode.
//
//dmclint:requires-lock mu
func (c *Cached) growClassMemos() {
	n := c.in.Len()
	if k := n - len(c.accept); k > 0 {
		c.accept = append(c.accept, make([]uint8, k)...)
	}
	if k := n - len(c.sel); k > 0 {
		c.sel = append(c.sel, make([]Selection, k)...)
		c.selOK = append(c.selOK, make([]bool, k)...)
	}
}

// homBase enumerates base classes through the wrapped predicate, serialized
// in shared mode (predicates may keep single-threaded internal memos, e.g.
// the generic MSO engine's pattern cache).
func (c *Cached) homBase(base *wterm.TerminalGraph) ([]BaseClass, error) {
	if c.mu == nil {
		return c.pred.HomBase(base)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pred.HomBase(base)
}

// SortCanonical sorts ids into canonical key order — the lock-aware
// counterpart of Interner().SortCanonical, safe on shared handles (rank
// maintenance mutates the interner even on the read path).
func (c *Cached) SortCanonical(ids []ClassID) {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.in.SortCanonical(ids)
}

// --- Predicate interface (drop-in wrapper form) ---

// Name implements Predicate.
func (c *Cached) Name() string { return c.pred.Name() }

// SetKind implements Predicate.
func (c *Cached) SetKind() SetKind { return c.pred.SetKind() }

// HomBase implements Predicate (base enumeration is already linear in its
// output; shared handles serialize the underlying call).
func (c *Cached) HomBase(base *wterm.TerminalGraph) ([]BaseClass, error) {
	return c.homBase(base)
}

// Compose implements Predicate with memoization keyed on interned operands.
func (c *Cached) Compose(f wterm.Gluing, c1, c2 Class) (Class, bool, error) {
	id, ok, err := c.ComposeIDs(c.InternGluing(f), c.Intern(c1), c.Intern(c2))
	if err != nil || !ok {
		return nil, ok, err
	}
	return c.ClassOf(id), true, nil
}

// Accepting implements Predicate with per-class memoization.
func (c *Cached) Accepting(cl Class) (bool, error) {
	return c.AcceptingID(c.Intern(cl))
}

// Selection implements Predicate with per-class memoization.
func (c *Cached) Selection(cl Class) (Selection, error) {
	return c.SelectionID(c.Intern(cl))
}

// DecodeClass implements Predicate via the intern-by-wire fast path.
func (c *Cached) DecodeClass(data []byte) (Class, error) {
	id, err := c.InternWire(data)
	if err != nil {
		return nil, err
	}
	return c.ClassOf(id), nil
}
