// Package regular defines regular graph predicates in the sense of
// Definition 4.1 of the paper (Borie–Parker–Tovey): a finite set of
// homomorphism classes per terminal count, a homomorphism function on base
// graphs, and an update function ⊙_f per composition f. It also provides the
// generic dynamic-programming table algebra (decision sets, OPT tables with
// back-pointers, COUNT tables) shared by the sequential Algorithm 1 driver
// and the distributed CONGEST protocol.
//
// The library derives graphs through the edge-owned grammar (see package
// wterm): every edge and every vertex weight is introduced by exactly one
// base graph, so OPT is a plain sum and COUNT a plain product over
// compatible class pairs — Equations (3)–(4) of the paper with the
// inclusion–exclusion correction term identically zero.
package regular

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/wterm"
)

// ErrOverflow is returned when table arithmetic (COUNT products/sums or OPT
// weight sums) exceeds int64.
var ErrOverflow = errors.New("regular: table arithmetic overflow")

// SetKind describes the free set variable of a predicate.
type SetKind int

// Set-variable kinds: closed predicates have SetNone.
const (
	SetNone SetKind = iota + 1
	SetVertex
	SetEdge
)

// Class is an opaque homomorphism class. Key must be a canonical encoding:
// two classes are equal iff their keys are equal, and DecodeClass(Key) must
// reconstruct the class (keys double as the CONGEST wire format).
type Class interface {
	Key() string
}

// Selection is the restriction of the free set variable to a w-terminal
// graph, as in the Remark after Definition 4.1: a bitmask over terminal ranks
// (0-based) for vertex predicates, and the selected owned edges as terminal
// rank pairs (lo < hi, 0-based) for edge predicates.
type Selection struct {
	VertexMask uint64
	EdgePairs  [][2]int
}

// NormalizeEdgePairs sorts and normalizes the pair list in place and returns
// it; pairs are stored with lo < hi in lexicographic order.
func NormalizeEdgePairs(pairs [][2]int) [][2]int {
	for i, p := range pairs {
		if p[0] > p[1] {
			pairs[i] = [2]int{p[1], p[0]}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// BaseClass pairs a homomorphism class of a base graph with the selection
// that produced it.
type BaseClass struct {
	Class Class
	Sel   Selection
}

// Predicate is a regular graph predicate (Definition 4.1). Implementations
// must be deterministic: HomBase and Compose may not depend on anything but
// their arguments.
type Predicate interface {
	// Name identifies the predicate in logs and CLIs.
	Name() string
	// SetKind reports the kind of the free set variable.
	SetKind() SetKind
	// HomBase enumerates h(base, X) over all restrictions X of the free set
	// variable to the base graph (a single entry for closed predicates).
	// Every vertex of the base is a terminal.
	HomBase(base *wterm.TerminalGraph) ([]BaseClass, error)
	// Compose is the update function ⊙_f. The boolean is false when the two
	// classes are incompatible under f (selections disagree on glued
	// terminals, or forgetting a terminal violates the predicate for good).
	Compose(f wterm.Gluing, c1, c2 Class) (Class, bool, error)
	// Accepting reports whether the class is accepting.
	Accepting(c Class) (bool, error)
	// Selection reports the free-variable restriction encoded in the class
	// (zero Selection for closed predicates).
	Selection(c Class) (Selection, error)
	// DecodeClass reconstructs a class from its Key (wire format).
	DecodeClass(data []byte) (Class, error)
}

// --- Decision tables ---

// ClassSet is a decision-mode table: the set of reachable classes, keyed
// canonically.
type ClassSet map[string]Class

// Keys returns the sorted keys (canonical iteration order).
func (s ClassSet) Keys() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FoldDecide computes the class set of f(acc, child) from the operand class
// sets.
func FoldDecide(p Predicate, f wterm.Gluing, acc, child ClassSet) (ClassSet, error) {
	out := make(ClassSet)
	for _, ka := range acc.Keys() {
		for _, kc := range child.Keys() {
			c, ok, err := p.Compose(f, acc[ka], child[kc])
			if err != nil {
				return nil, err
			}
			if ok {
				out[c.Key()] = c
			}
		}
	}
	return out, nil
}

// AnyAccepting reports whether some class in the set is accepting.
func AnyAccepting(p Predicate, s ClassSet) (bool, error) {
	for _, k := range s.Keys() {
		acc, err := p.Accepting(s[k])
		if err != nil {
			return false, err
		}
		if acc {
			return true, nil
		}
	}
	return false, nil
}

// --- OPT tables ---

// OptEntry is one OPT-table row: the best achievable weight of a partial
// solution in this homomorphism class.
type OptEntry struct {
	Class  Class
	Weight int64
}

// OptTable maps class keys to their best entries. It plays the role of
// OPT(G_u) from Definition 4.5 (entries absent from the map are -infinity).
type OptTable map[string]OptEntry

// Keys returns the sorted class keys.
func (t OptTable) Keys() []string {
	out := make([]string, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Better reports whether weight a beats weight b under the given direction.
func Better(a, b int64, maximize bool) bool {
	if maximize {
		return a > b
	}
	return a < b
}

// OptBack records, for one result class, the operand classes that produced
// its best weight — the ARGOPT information of Lemma 4.6.
type OptBack struct {
	AccKey   string
	ChildKey string
}

// FoldOpt computes OPT(f(acc, child)) and the back-pointers for extraction.
func FoldOpt(p Predicate, f wterm.Gluing, acc, child OptTable, maximize bool) (OptTable, map[string]OptBack, error) {
	out := make(OptTable)
	back := make(map[string]OptBack)
	for _, ka := range acc.Keys() {
		for _, kc := range child.Keys() {
			c, ok, err := p.Compose(f, acc[ka].Class, child[kc].Class)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
			w, err := AddWeights(acc[ka].Weight, child[kc].Weight)
			if err != nil {
				return nil, nil, err
			}
			key := c.Key()
			if prev, exists := out[key]; !exists || Better(w, prev.Weight, maximize) {
				out[key] = OptEntry{Class: c, Weight: w}
				back[key] = OptBack{AccKey: ka, ChildKey: kc}
			}
		}
	}
	return out, back, nil
}

// BestAccepting returns the accepting entry with the best weight, or
// found=false when no accepting class is reachable (the problem is
// infeasible, e.g. no spanning tree of a disconnected graph).
func BestAccepting(p Predicate, t OptTable, maximize bool) (OptEntry, bool, error) {
	var best OptEntry
	found := false
	for _, k := range t.Keys() {
		acc, err := p.Accepting(t[k].Class)
		if err != nil {
			return OptEntry{}, false, err
		}
		if !acc {
			continue
		}
		if !found || Better(t[k].Weight, best.Weight, maximize) {
			best = t[k]
			found = true
		}
	}
	return best, found, nil
}

// --- COUNT tables ---

// CountEntry is one COUNT-table row: the number of partial assignments in
// this class.
type CountEntry struct {
	Class Class
	Count int64
}

// CountTable maps class keys to counts (the table COUNT(G) of Section 6).
type CountTable map[string]CountEntry

// Keys returns the sorted class keys.
func (t CountTable) Keys() []string {
	out := make([]string, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FoldCount computes COUNT(f(acc, child)): products of compatible pairs,
// summed per result class, with int64 overflow detection.
func FoldCount(p Predicate, f wterm.Gluing, acc, child CountTable) (CountTable, error) {
	out := make(CountTable)
	for _, ka := range acc.Keys() {
		for _, kc := range child.Keys() {
			c, ok, err := p.Compose(f, acc[ka].Class, child[kc].Class)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			prod, err := mulCheck(acc[ka].Count, child[kc].Count)
			if err != nil {
				return nil, err
			}
			key := c.Key()
			entry := out[key]
			entry.Class = c
			entry.Count, err = addCheck(entry.Count, prod)
			if err != nil {
				return nil, err
			}
			out[key] = entry
		}
	}
	return out, nil
}

// TotalAccepting sums the counts of accepting classes.
func TotalAccepting(p Predicate, t CountTable) (int64, error) {
	var total int64
	for _, k := range t.Keys() {
		acc, err := p.Accepting(t[k].Class)
		if err != nil {
			return 0, err
		}
		if acc {
			var err2 error
			total, err2 = addCheck(total, t[k].Count)
			if err2 != nil {
				return 0, err2
			}
		}
	}
	return total, nil
}

func mulCheck(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > uint64(1)<<62 {
		return 0, fmt.Errorf("%w: %d * %d", ErrOverflow, a, b)
	}
	return int64(lo), nil
}

func addCheck(a, b int64) (int64, error) {
	s := a + b
	if s < a {
		return 0, fmt.Errorf("%w: %d + %d", ErrOverflow, a, b)
	}
	return s, nil
}

// --- Base-table builders ---

// BaseWeight computes the weight contribution of a base-graph selection
// under edge-owned accounting: the owner vertex's weight if selected plus
// the weights of the selected owned edges. ownerRank is the terminal rank of
// the bag's deepest vertex (the owner of the base graph).
func BaseWeight(base *wterm.TerminalGraph, ownerRank int, sel Selection) (int64, error) {
	var w int64
	if sel.VertexMask&(1<<uint(ownerRank)) != 0 {
		w += base.G.VertexWeight(base.Terminals[ownerRank])
	}
	for _, pair := range sel.EdgePairs {
		u, v := base.Terminals[pair[0]], base.Terminals[pair[1]]
		id, ok := base.G.EdgeBetween(u, v)
		if !ok {
			return 0, fmt.Errorf("regular: selected pair (%d,%d) is not a base edge", pair[0], pair[1])
		}
		w += base.G.EdgeWeight(id)
	}
	return w, nil
}

// BaseOptTable builds OPT(base) from HomBase, keeping the best weight per
// class (Equation (3) under edge-owned accounting).
func BaseOptTable(p Predicate, base *wterm.TerminalGraph, ownerRank int, maximize bool) (OptTable, error) {
	classes, err := p.HomBase(base)
	if err != nil {
		return nil, err
	}
	out := make(OptTable, len(classes))
	for _, bc := range classes {
		w, err := BaseWeight(base, ownerRank, bc.Sel)
		if err != nil {
			return nil, err
		}
		key := bc.Class.Key()
		if prev, exists := out[key]; !exists || Better(w, prev.Weight, maximize) {
			out[key] = OptEntry{Class: bc.Class, Weight: w}
		}
	}
	return out, nil
}

// BaseCountTable builds COUNT(base) from HomBase: each enumerated selection
// contributes one assignment.
func BaseCountTable(p Predicate, base *wterm.TerminalGraph) (CountTable, error) {
	classes, err := p.HomBase(base)
	if err != nil {
		return nil, err
	}
	out := make(CountTable, len(classes))
	for _, bc := range classes {
		key := bc.Class.Key()
		entry := out[key]
		entry.Class = bc.Class
		var err2 error
		entry.Count, err2 = addCheck(entry.Count, 1)
		if err2 != nil {
			return nil, err2
		}
		out[key] = entry
	}
	return out, nil
}

// BaseClassSet builds the decision table of a base graph.
func BaseClassSet(p Predicate, base *wterm.TerminalGraph) (ClassSet, error) {
	classes, err := p.HomBase(base)
	if err != nil {
		return nil, err
	}
	out := make(ClassSet, len(classes))
	for _, bc := range classes {
		out[bc.Class.Key()] = bc.Class
	}
	return out, nil
}
