package regular

import "sort"

// ClassID is a dense per-run identifier for an interned homomorphism class.
// IDs are assigned in first-seen order by one Interner and are meaningful
// only relative to it; the canonical (wire/tie-breaking) order remains the
// lexicographic order of class keys, which the Interner tracks incrementally
// so tables never re-sort strings.
type ClassID int32

// NoClass is the sentinel for "no class" (incompatible compositions, absent
// back-pointers).
const NoClass ClassID = -1

// Interner maps canonical class keys to dense ClassIDs with O(1) lookups in
// both directions. A bounded-treedepth run touches only O(2^d)-ish distinct
// classes while folding thousands of (class, class) pairs, so interning once
// and comparing int32s afterwards removes the per-fold string hashing and
// key sorting the map-based tables paid for.
type Interner struct {
	byKey   map[string]ClassID
	classes []Class
	keys    []string
	// sorted holds every interned ID in lexicographic key order and is
	// maintained incrementally (binary insertion) as classes are interned;
	// rank is its inverse, rebuilt lazily.
	sorted []ClassID
	rank   []int32
	rankOK bool
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{byKey: make(map[string]ClassID)}
}

// Len returns the number of distinct classes interned.
func (in *Interner) Len() int { return len(in.classes) }

// Intern returns the ID of c's class, interning it on first sight. Classes
// are identified by their canonical Key; the first representative seen is
// the one stored (key-equal classes are interchangeable by the Predicate
// contract).
func (in *Interner) Intern(c Class) ClassID {
	return in.InternKeyed(c.Key(), c)
}

// InternKeyed is Intern for callers that already hold the class key,
// avoiding a redundant Key() call.
func (in *Interner) InternKeyed(key string, c Class) ClassID {
	if id, ok := in.byKey[key]; ok {
		return id
	}
	id := ClassID(len(in.classes))
	in.byKey[key] = id
	in.classes = append(in.classes, c)
	in.keys = append(in.keys, key)
	// Keep the canonical order current: binary-insert the new ID. The
	// distinct-class universe is small (O(2^d) shapes), so the memmove is
	// cheap and amortizes the string sorts the old tables did per fold.
	pos := sort.Search(len(in.sorted), func(i int) bool { return in.keys[in.sorted[i]] >= key })
	in.sorted = append(in.sorted, 0)
	copy(in.sorted[pos+1:], in.sorted[pos:])
	in.sorted[pos] = id
	in.rankOK = false
	return id
}

// reserve sizes an empty interner for n classes, so that interning a base
// table's classes, the first thing a fresh per-node cache does, grows no
// map or slice step by step. An interner that already holds classes is
// left alone.
func (in *Interner) reserve(n int) {
	if len(in.classes) != 0 || n <= 0 {
		return
	}
	in.byKey = make(map[string]ClassID, n)
	in.classes = make([]Class, 0, n)
	in.keys = make([]string, 0, n)
	in.sorted = make([]ClassID, 0, n)
}

// Lookup returns the ID previously interned for key, if any.
func (in *Interner) Lookup(key string) (ClassID, bool) {
	id, ok := in.byKey[key]
	return id, ok
}

// Class returns the stored representative for id.
func (in *Interner) Class(id ClassID) Class { return in.classes[id] }

// Key returns the canonical key for id.
func (in *Interner) Key(id ClassID) string { return in.keys[id] }

// SortCanonical sorts ids into canonical key order using integer rank
// comparisons — the "computed once" iteration order dense tables rely on.
func (in *Interner) SortCanonical(ids []ClassID) {
	in.ensureRank()
	rank := in.rank
	sort.Slice(ids, func(i, j int) bool { return rank[ids[i]] < rank[ids[j]] })
}

func (in *Interner) ensureRank() {
	if in.rankOK {
		return
	}
	if cap(in.rank) < len(in.sorted) {
		in.rank = make([]int32, len(in.sorted))
	} else {
		in.rank = in.rank[:len(in.sorted)]
	}
	for pos, id := range in.sorted {
		in.rank[id] = int32(pos)
	}
	in.rankOK = true
}
