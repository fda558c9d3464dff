// Package seq implements the sequential Algorithm 1 of the paper: bottom-up
// dynamic programming of homomorphism classes / OPT tables / COUNT tables
// over an elimination-tree derivation, followed by a top-down extraction
// phase for optimization. It serves as the centralized baseline and as the
// reference implementation that the distributed CONGEST protocol mirrors.
package seq

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/regular"
	"repro/internal/treedepth"
	"repro/internal/wterm"
)

// ErrDisconnected is returned when the input graph is not connected; like
// the CONGEST model, the drivers assume a connected network.
var ErrDisconnected = errors.New("seq: graph must be connected")

// Runner evaluates a regular predicate on a graph along a given elimination
// tree.
type Runner struct {
	g     *graph.Graph
	deriv *wterm.Derivation
	pred  regular.Predicate
	root  int
	// cache is the interned, memoized DP algebra shared across the whole
	// bottom-up pass (nil for the uncached reference runner). Every node's
	// fold reuses the same ⊙_f memo, so recurring bag shapes pay for each
	// distinct (gluing, class, class) composition exactly once.
	cache   *regular.Cached
	maxTab  int    // largest table size seen in the last run (for diagnostics)
	maxKey  int    // largest class key (wire bytes) seen in the last run
	rootSum uint64 // digest of the last run's root table (class keys + values)
}

// New builds a runner using the cached dense DP algebra. The graph must be
// connected and the forest must be a valid elimination tree of g.
func New(g *graph.Graph, forest *treedepth.Forest, pred regular.Predicate) (*Runner, error) {
	r, err := NewUncached(g, forest, pred)
	if err != nil {
		return nil, err
	}
	r.cache = regular.NewCached(pred)
	return r, nil
}

// NewWithCache builds a runner that evaluates through an existing cached
// algebra (for example a handle of a process-lifetime regular.Shared). The
// predicate is taken from the cache; results are bit-identical to New.
func NewWithCache(g *graph.Graph, forest *treedepth.Forest, cache *regular.Cached) (*Runner, error) {
	if cache == nil {
		return nil, errors.New("seq: NewWithCache requires a non-nil cache")
	}
	r, err := NewUncached(g, forest, cache.Predicate())
	if err != nil {
		return nil, err
	}
	r.cache = cache
	return r, nil
}

// NewUncached builds a runner on the original map-based tables with no
// interning or memoization — the reference path cached runs are validated
// against.
func NewUncached(g *graph.Graph, forest *treedepth.Forest, pred regular.Predicate) (*Runner, error) {
	if !g.IsConnected() || g.NumVertices() == 0 {
		return nil, ErrDisconnected
	}
	d, err := wterm.NewDerivation(g, forest)
	if err != nil {
		return nil, err
	}
	roots := forest.Roots()
	if len(roots) != 1 {
		return nil, fmt.Errorf("seq: expected one elimination-tree root, got %d", len(roots))
	}
	return &Runner{g: g, deriv: d, pred: pred, root: roots[0]}, nil
}

// CacheStats returns the cache counters accumulated so far (zero for an
// uncached runner).
func (r *Runner) CacheStats() regular.CacheStats {
	if r.cache == nil {
		return regular.CacheStats{}
	}
	return r.cache.Stats()
}

// MaxTableSize returns the largest per-node table size observed during the
// most recent run (a proxy for |C|).
func (r *Runner) MaxTableSize() int { return r.maxTab }

// MaxClassKeyBytes returns the largest class wire encoding observed during
// the most recent run (a proxy for log|C|, the per-message bit count).
func (r *Runner) MaxClassKeyBytes() int { return r.maxKey }

// RootTableChecksum digests the most recent run's root table: every (class
// key, value) pair in canonical order, FNV-64a. Cached and uncached runs of
// the same problem must agree class-for-class, so equal checksums certify
// table-level (not just verdict-level) equivalence.
func (r *Runner) RootTableChecksum() uint64 { return r.rootSum }

// digestRoot hashes canonical (key, value) pairs into rootSum.
func (r *Runner) digestRoot(keys []string, value func(i int) int64) {
	h := fnv.New64a()
	var buf [8]byte
	for i, k := range keys {
		h.Write([]byte(k))
		v := uint64(value(i))
		for j := range buf {
			buf[j] = byte(v >> uint(8*j))
		}
		h.Write(buf[:])
	}
	r.rootSum = h.Sum64()
}

func (r *Runner) noteKeys(keys []string) {
	for _, k := range keys {
		if len(k) > r.maxKey {
			r.maxKey = len(k)
		}
	}
}

func (r *Runner) noteIDs(ids []regular.ClassID) {
	if len(ids) > r.maxTab {
		r.maxTab = len(ids)
	}
	for _, id := range ids {
		if n := len(r.cache.KeyOf(id)); n > r.maxKey {
			r.maxKey = n
		}
	}
}

func (r *Runner) ownerRank(u int) int {
	bag := r.deriv.Bags[u]
	return sort.SearchInts(bag, u)
}

// Decide runs the bottom-up decision phase (Lemma 4.3) and returns whether
// the root's class set contains an accepting class. For closed predicates
// the set is a singleton and this is exactly h(G) being accepting.
func (r *Runner) Decide() (bool, error) {
	if r.cache != nil {
		tables, _, err := r.bottomUp(regular.Exists, nil)
		if err != nil {
			return false, err
		}
		_, _, ok, err := r.cache.ReduceAccepting(regular.Exists, tables[r.root])
		return ok, err
	}
	children := r.deriv.Forest.Children()
	tables := make([]regular.ClassSet, r.g.NumVertices())
	r.maxTab = 0
	for _, u := range r.deriv.Order {
		base, err := r.deriv.Base(u)
		if err != nil {
			return false, err
		}
		acc, err := regular.BaseClassSet(r.pred, base)
		if err != nil {
			return false, err
		}
		for _, c := range children[u] {
			glue, err := r.deriv.FoldGluing(u, c)
			if err != nil {
				return false, err
			}
			acc, err = regular.FoldDecide(r.pred, glue, acc, tables[c])
			if err != nil {
				return false, err
			}
			tables[c] = nil // free child table
		}
		if len(acc) > r.maxTab {
			r.maxTab = len(acc)
		}
		r.noteKeys(acc.Keys())
		tables[u] = acc
	}
	r.digestRoot(tables[r.root].Keys(), func(int) int64 { return 0 })
	return regular.AnyAccepting(r.pred, tables[r.root])
}

// stage is one fold of an optimization pass: the child folded in, the
// table the fold produced and that table's back-pointers.
type stage struct {
	child int
	table regular.Table
	back  []regular.Back
}

// bottomUp is the dense bottom-up pass of Decide, Optimize, Count and
// EvaluateMarked under semiring s: each node's base table, folded with its
// children's tables in post-order. It returns the node tables (only the
// root's survives unless s optimizes) and, when s optimizes, each node's
// fold stages for the top-down extraction. A non-nil marked set keeps only
// the base classes whose selection agrees with it on the node's owned
// elements, and leaves the run diagnostics alone.
func (r *Runner) bottomUp(s regular.Semiring, marked *bitset.Set) ([]regular.Table, [][]stage, error) {
	children := r.deriv.Forest.Children()
	tables := make([]regular.Table, r.g.NumVertices())
	var stages [][]stage
	if s.Optimizes() {
		stages = make([][]stage, len(tables))
	}
	if marked == nil {
		r.maxTab = 0
	}
	for _, u := range r.deriv.Order {
		base, err := r.deriv.Base(u)
		if err != nil {
			return nil, nil, err
		}
		var keep func(regular.Selection) bool
		if marked != nil {
			want, err := r.markedBaseSelection(u, marked)
			if err != nil {
				return nil, nil, err
			}
			keep = func(sel regular.Selection) bool { return r.selectionMatchesOwned(u, sel, want) }
		}
		acc, err := r.cache.Base(s, base, r.ownerRank(u), keep)
		if err != nil {
			return nil, nil, err
		}
		for _, c := range children[u] {
			glue, err := r.deriv.FoldGluing(u, c)
			if err != nil {
				return nil, nil, err
			}
			var back []regular.Back
			acc, back, err = r.cache.Fold(s, r.cache.InternGluing(glue), acc, tables[c])
			if err != nil {
				return nil, nil, err
			}
			if stages != nil {
				stages[u] = append(stages[u], stage{child: c, table: acc, back: back})
			} else {
				tables[c] = regular.Table{} // free child table
			}
		}
		if marked == nil {
			r.noteIDs(acc.IDs)
		}
		tables[u] = acc
	}
	if marked == nil {
		root := tables[r.root]
		keys := make([]string, len(root.IDs))
		for i, id := range root.IDs {
			keys[i] = r.cache.KeyOf(id)
		}
		r.digestRoot(keys, func(i int) int64 {
			if root.Vals == nil {
				return 0
			}
			return root.Vals[i]
		})
	}
	return tables, stages, nil
}

// OptResult is the outcome of Optimize: the optimal weight and the selected
// set (vertex IDs or edge IDs of the input graph, per the predicate's kind).
type OptResult struct {
	Found    bool
	Weight   int64
	Vertices *bitset.Set // nil unless SetVertex
	Edges    *bitset.Set // nil unless SetEdge
}

type foldStage struct {
	child int
	back  map[string]regular.OptBack
}

// Optimize runs the bottom-up OPT phase (Lemma 4.6) and the top-down
// extraction of Algorithm 1, returning the optimal solution.
func (r *Runner) Optimize(maximize bool) (OptResult, error) {
	if r.cache != nil {
		s := regular.OptSemiring(maximize)
		tables, stages, err := r.bottomUp(s, nil)
		if err != nil {
			return OptResult{}, err
		}
		return r.extract(s, tables, stages)
	}
	n := r.g.NumVertices()
	children := r.deriv.Forest.Children()
	tables := make([]regular.OptTable, n)
	stages := make([][]foldStage, n)
	r.maxTab = 0
	for _, u := range r.deriv.Order {
		base, err := r.deriv.Base(u)
		if err != nil {
			return OptResult{}, err
		}
		acc, err := regular.BaseOptTable(r.pred, base, r.ownerRank(u), maximize)
		if err != nil {
			return OptResult{}, err
		}
		for _, c := range children[u] {
			glue, err := r.deriv.FoldGluing(u, c)
			if err != nil {
				return OptResult{}, err
			}
			var back map[string]regular.OptBack
			acc, back, err = regular.FoldOpt(r.pred, glue, acc, tables[c], maximize)
			if err != nil {
				return OptResult{}, err
			}
			stages[u] = append(stages[u], foldStage{child: c, back: back})
		}
		if len(acc) > r.maxTab {
			r.maxTab = len(acc)
		}
		r.noteKeys(acc.Keys())
		tables[u] = acc
	}
	rootKeys := tables[r.root].Keys()
	r.digestRoot(rootKeys, func(i int) int64 { return tables[r.root][rootKeys[i]].Weight })
	best, found, err := regular.BestAccepting(r.pred, tables[r.root], maximize)
	if err != nil {
		return OptResult{}, err
	}
	if !found {
		return OptResult{}, nil
	}
	res := OptResult{Found: true, Weight: best.Weight}
	switch r.pred.SetKind() {
	case regular.SetVertex:
		res.Vertices = bitset.New(n)
	case regular.SetEdge:
		res.Edges = bitset.New(r.g.NumEdges())
	}

	// Top-down extraction: assign each node its target class key, walk the
	// fold stages backwards to find the children's keys, and mark the
	// selection owned by each node.
	targetKey := make(map[int]string, n)
	targetKey[r.root] = best.Class.Key()
	// Reverse post-order visits parents before children.
	for i := len(r.deriv.Order) - 1; i >= 0; i-- {
		u := r.deriv.Order[i]
		key, ok := targetKey[u]
		if !ok {
			return OptResult{}, fmt.Errorf("seq: extraction reached node %d without a target class", u)
		}
		entry, ok := tables[u][key]
		if !ok {
			return OptResult{}, fmt.Errorf("seq: node %d has no entry for its target class", u)
		}
		if err := r.markSelection(u, entry.Class, &res); err != nil {
			return OptResult{}, err
		}
		for s := len(stages[u]) - 1; s >= 0; s-- {
			st := stages[u][s]
			b, ok := st.back[key]
			if !ok {
				return OptResult{}, fmt.Errorf("seq: node %d stage %d missing back-pointer", u, s)
			}
			targetKey[st.child] = b.ChildKey
			key = b.AccKey
		}
	}
	return res, nil
}

// extract is Optimize's top-down extraction on the dense tables of a
// bottomUp pass under s, with identical tie-breaking to the map path
// (canonical iteration order, first strictly-better wins).
func (r *Runner) extract(s regular.Semiring, tables []regular.Table, stages [][]stage) (OptResult, error) {
	bestID, bestW, found, err := r.cache.ReduceAccepting(s, tables[r.root])
	if err != nil {
		return OptResult{}, err
	}
	if !found {
		return OptResult{}, nil
	}
	n := r.g.NumVertices()
	res := OptResult{Found: true, Weight: bestW}
	switch r.pred.SetKind() {
	case regular.SetVertex:
		res.Vertices = bitset.New(n)
	case regular.SetEdge:
		res.Edges = bitset.New(r.g.NumEdges())
	}

	targetID := make(map[int]regular.ClassID, n)
	targetID[r.root] = bestID
	for i := len(r.deriv.Order) - 1; i >= 0; i-- {
		u := r.deriv.Order[i]
		id, ok := targetID[u]
		if !ok {
			return OptResult{}, fmt.Errorf("seq: extraction reached node %d without a target class", u)
		}
		if tables[u].Index(id) < 0 {
			return OptResult{}, fmt.Errorf("seq: node %d has no entry for its target class", u)
		}
		sel, err := r.cache.SelectionID(id)
		if err != nil {
			return OptResult{}, err
		}
		if err := r.markSelectionSel(u, sel, &res); err != nil {
			return OptResult{}, err
		}
		for s := len(stages[u]) - 1; s >= 0; s-- {
			st := stages[u][s]
			j := st.table.Index(id)
			if j < 0 {
				return OptResult{}, fmt.Errorf("seq: node %d stage %d missing back-pointer", u, s)
			}
			targetID[st.child] = st.back[j].Child
			id = st.back[j].Acc
		}
	}
	return res, nil
}

// markSelection records the elements owned by node u that the class declares
// selected: u itself (vertex kind) or u's owned edges (edge kind).
func (r *Runner) markSelection(u int, c regular.Class, res *OptResult) error {
	sel, err := r.pred.Selection(c)
	if err != nil {
		return err
	}
	return r.markSelectionSel(u, sel, res)
}

// markSelectionSel is markSelection on an already-decoded selection.
func (r *Runner) markSelectionSel(u int, sel regular.Selection, res *OptResult) error {
	bag := r.deriv.Bags[u]
	rank := r.ownerRank(u)
	switch r.pred.SetKind() {
	case regular.SetVertex:
		if sel.VertexMask&(1<<uint(rank)) != 0 {
			res.Vertices.Add(u)
		}
	case regular.SetEdge:
		for _, pair := range sel.EdgePairs {
			// Only edges owned by u (incident to u's rank) are marked here;
			// the class of G_u can only contain owned pairs anyway.
			a, b := bag[pair[0]], bag[pair[1]]
			id, ok := r.g.EdgeBetween(a, b)
			if !ok {
				return fmt.Errorf("seq: class selects non-edge {%d,%d}", a, b)
			}
			res.Edges.Add(id)
		}
	}
	return nil
}

// Count runs the bottom-up COUNT phase (Section 6) and returns the number of
// satisfying assignments of the free set variable.
func (r *Runner) Count() (int64, error) {
	if r.cache != nil {
		tables, _, err := r.bottomUp(regular.Count, nil)
		if err != nil {
			return 0, err
		}
		_, total, _, err := r.cache.ReduceAccepting(regular.Count, tables[r.root])
		return total, err
	}
	children := r.deriv.Forest.Children()
	tables := make([]regular.CountTable, r.g.NumVertices())
	r.maxTab = 0
	for _, u := range r.deriv.Order {
		base, err := r.deriv.Base(u)
		if err != nil {
			return 0, err
		}
		acc, err := regular.BaseCountTable(r.pred, base)
		if err != nil {
			return 0, err
		}
		for _, c := range children[u] {
			glue, err := r.deriv.FoldGluing(u, c)
			if err != nil {
				return 0, err
			}
			acc, err = regular.FoldCount(r.pred, glue, acc, tables[c])
			if err != nil {
				return 0, err
			}
			tables[c] = nil
		}
		if len(acc) > r.maxTab {
			r.maxTab = len(acc)
		}
		r.noteKeys(acc.Keys())
		tables[u] = acc
	}
	rootKeys := tables[r.root].Keys()
	r.digestRoot(rootKeys, func(i int) int64 { return tables[r.root][rootKeys[i]].Count })
	return regular.TotalAccepting(r.pred, tables[r.root])
}

// CheckMarked implements the optmarked problem of Section 6: given the
// marked set (vertex IDs or edge IDs matching the predicate's kind), decide
// whether it satisfies the predicate AND achieves the optimal weight.
func (r *Runner) CheckMarked(marked *bitset.Set, maximize bool) (bool, error) {
	opt, err := r.Optimize(maximize)
	if err != nil {
		return false, err
	}
	satisfies, weight, err := r.EvaluateMarked(marked)
	if err != nil {
		return false, err
	}
	if !satisfies {
		return false, nil
	}
	if !opt.Found {
		return false, nil
	}
	return weight == opt.Weight, nil
}

// EvaluateMarked decides whether the marked set satisfies the predicate (the
// closed formula ψ of Section 6) and returns its total weight.
func (r *Runner) EvaluateMarked(marked *bitset.Set) (bool, int64, error) {
	if r.cache != nil {
		tables, _, err := r.bottomUp(regular.Exists, marked)
		if err != nil {
			return false, 0, err
		}
		var weight int64
		switch r.pred.SetKind() {
		case regular.SetVertex:
			marked.ForEach(func(v int) { weight += r.g.VertexWeight(v) })
		case regular.SetEdge:
			marked.ForEach(func(e int) { weight += r.g.EdgeWeight(e) })
		}
		_, _, ok, err := r.cache.ReduceAccepting(regular.Exists, tables[r.root])
		return ok, weight, err
	}
	children := r.deriv.Forest.Children()
	tables := make([]regular.ClassSet, r.g.NumVertices())
	var weight int64
	for _, u := range r.deriv.Order {
		base, err := r.deriv.Base(u)
		if err != nil {
			return false, 0, err
		}
		classes, err := r.pred.HomBase(base)
		if err != nil {
			return false, 0, err
		}
		want, err := r.markedBaseSelection(u, marked)
		if err != nil {
			return false, 0, err
		}
		acc := make(regular.ClassSet)
		for _, bc := range classes {
			if r.selectionMatchesOwned(u, bc.Sel, want) {
				acc[bc.Class.Key()] = bc.Class
			}
		}
		for _, c := range children[u] {
			glue, err := r.deriv.FoldGluing(u, c)
			if err != nil {
				return false, 0, err
			}
			acc, err = regular.FoldDecide(r.pred, glue, acc, tables[c])
			if err != nil {
				return false, 0, err
			}
			tables[c] = nil
		}
		tables[u] = acc
	}
	// Total marked weight under edge-owned accounting.
	switch r.pred.SetKind() {
	case regular.SetVertex:
		marked.ForEach(func(v int) { weight += r.g.VertexWeight(v) })
	case regular.SetEdge:
		marked.ForEach(func(e int) { weight += r.g.EdgeWeight(e) })
	}
	ok, err := regular.AnyAccepting(r.pred, tables[r.root])
	return ok, weight, err
}

// markedBaseSelection computes the selection the marked set induces on the
// elements owned by node u.
func (r *Runner) markedBaseSelection(u int, marked *bitset.Set) (regular.Selection, error) {
	bag := r.deriv.Bags[u]
	rank := r.ownerRank(u)
	var sel regular.Selection
	switch r.pred.SetKind() {
	case regular.SetVertex:
		if marked.Contains(u) {
			sel.VertexMask = 1 << uint(rank)
		}
	case regular.SetEdge:
		for i, v := range bag {
			if v == u {
				continue
			}
			if id, ok := r.g.EdgeBetween(u, v); ok && marked.Contains(id) {
				lo, hi := rank, i
				if lo > hi {
					lo, hi = hi, lo
				}
				sel.EdgePairs = append(sel.EdgePairs, [2]int{lo, hi})
			}
		}
		sel.EdgePairs = regular.NormalizeEdgePairs(sel.EdgePairs)
	case regular.SetNone:
		return regular.Selection{}, fmt.Errorf("seq: CheckMarked needs a predicate with a free set variable")
	}
	return sel, nil
}

// selectionMatchesOwned compares a base class's selection with the marked
// selection, restricted to the elements owned by u: the owner's bit for
// vertex predicates, all owned edge pairs for edge predicates.
func (r *Runner) selectionMatchesOwned(u int, got, want regular.Selection) bool {
	switch r.pred.SetKind() {
	case regular.SetVertex:
		rank := r.ownerRank(u)
		bit := uint64(1) << uint(rank)
		return got.VertexMask&bit == want.VertexMask&bit
	case regular.SetEdge:
		a := regular.NormalizeEdgePairs(append([][2]int(nil), got.EdgePairs...))
		b := regular.NormalizeEdgePairs(append([][2]int(nil), want.EdgePairs...))
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}
