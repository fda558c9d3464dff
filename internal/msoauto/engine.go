package msoauto

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bitset"
	"repro/internal/mso"
	"repro/internal/regular"
	"repro/internal/wterm"
)

// Options configure the generic engine.
type Options struct {
	// FreeSetVar names the free set variable of the formula ("" for closed
	// formulas); FreeSetKind must be mso.KindVertexSet or mso.KindEdgeSet
	// when FreeSetVar is set.
	FreeSetVar  string
	FreeSetKind mso.VarKind
	// Threshold clamps sibling-subtree multiplicities in pattern classes
	// (the Gajarský–Hlinený kernelization). 0 derives a conservative value
	// from the formula's quantifier rank; negative disables clamping (exact
	// mode, used for cross-validation).
	Threshold int
	// MaxSetUniverse is forwarded to the naive evaluator used on class
	// representatives (0 = mso.DefaultMaxSetUniverse).
	MaxSetUniverse int
}

// Engine compiles an MSO formula into a regular predicate over
// elimination-tree derivations (Theorem 4.2 for bounded treedepth). It is
// exact when Threshold is large enough for the formula's rank; the test
// suite cross-validates clamped runs against exact mode and the naive
// oracle.
type Engine struct {
	formula      mso.Formula
	opts         Options
	threshold    int
	vertexLabels []string

	// Engine-level caches, shared by all users of the predicate (the seq
	// runner, the per-node protocol wrappers, tests). Patterns are immutable
	// once canonicalized — Compose clones its operands before mutating — so
	// cached patClass values can be handed out freely. All three maps are
	// mutex-guarded and flushed wholesale at engineCacheCap (deterministic,
	// seed-free eviction: no map-iteration order is ever observed).
	mu          sync.Mutex
	acceptCache map[string]bool
	// canonCache memoizes canonicalizeAndKey: the pre-canonical encoding of
	// a freshly merged pattern (children in construction order, unclamped)
	// maps to the canonicalized class, so each distinct merge shape pays the
	// recursive sort-and-clamp once.
	canonCache map[string]patClass
	// decodeCache memoizes DecodeClass per wire key.
	decodeCache map[string]patClass
	stats       EngineStats
}

// engineCacheCap bounds each engine cache; on hitting the cap the whole map
// is dropped (a flush is deterministic and only costs recomputation).
const engineCacheCap = 1 << 18

// EngineStats counts engine cache traffic.
type EngineStats struct {
	CanonHits    int64 `json:"canon_hits"`
	CanonMisses  int64 `json:"canon_misses"`
	DecodeHits   int64 `json:"decode_hits"`
	DecodeMisses int64 `json:"decode_misses"`
	AcceptHits   int64 `json:"accept_hits"`
	AcceptMisses int64 `json:"accept_misses"`
}

// Stats returns a snapshot of the engine's cache counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

var _ regular.Predicate = (*Engine)(nil)

// New builds an engine for the formula. The formula's unary label
// predicates become the vertex-label vocabulary; edge labels are not
// supported by the generic engine (use a compiled predicate).
func New(formula mso.Formula, opts Options) (*Engine, error) {
	free := map[string]mso.VarKind{}
	if opts.FreeSetVar != "" {
		if opts.FreeSetKind != mso.KindVertexSet && opts.FreeSetKind != mso.KindEdgeSet {
			return nil, fmt.Errorf("msoauto: free variable %q needs kind VS or ES, got %v", opts.FreeSetVar, opts.FreeSetKind)
		}
		free[opts.FreeSetVar] = opts.FreeSetKind
	}
	if err := mso.Check(formula, free); err != nil {
		return nil, err
	}
	labels := mso.LabelNames(formula)
	if len(labels) > 32 {
		return nil, fmt.Errorf("msoauto: at most 32 labels supported, formula uses %d", len(labels))
	}
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold(formula)
	}
	if threshold < 0 {
		threshold = 0 // exact mode: no clamping
	}
	return &Engine{
		formula:      formula,
		opts:         opts,
		threshold:    threshold,
		vertexLabels: labels,
		acceptCache:  map[string]bool{},
		canonCache:   map[string]patClass{},
		decodeCache:  map[string]patClass{},
	}, nil
}

// DefaultThreshold returns the rank-derived sibling-multiplicity bound
// 2^qr(φ) + 1 (capped at 64): by a standard Ehrenfeucht–Fraïssé argument,
// MSO formulas of quantifier rank q cannot distinguish sibling-subtree
// multiplicities beyond a function of q, for which this is a conservative
// practical choice.
func DefaultThreshold(formula mso.Formula) int {
	q := mso.QuantifierRank(formula)
	if q > 6 {
		return 64
	}
	return 1<<uint(q) + 1
}

// Name implements regular.Predicate.
func (e *Engine) Name() string {
	return fmt.Sprintf("mso(%s)", e.formula)
}

// SetKind implements regular.Predicate.
func (e *Engine) SetKind() regular.SetKind {
	switch {
	case e.opts.FreeSetVar == "":
		return regular.SetNone
	case e.opts.FreeSetKind == mso.KindVertexSet:
		return regular.SetVertex
	default:
		return regular.SetEdge
	}
}

type patClass struct {
	key string
	pat *pattern
}

func (c patClass) Key() string { return c.key }

// basePattern builds the terminal-only pattern of a base graph for one
// selection (vertex mask or edge mask over the base's owned edges).
func (e *Engine) basePattern(base *wterm.TerminalGraph, vertexSel uint64, edgeSel map[[2]int]bool) (*pattern, error) {
	k := base.NumTerminals()
	if k > maxTerminals {
		return nil, fmt.Errorf("%w: %d terminals exceeds limit %d", ErrLimit, k, maxTerminals)
	}
	p := &pattern{
		k:         k,
		termAdj:   make([]uint64, k),
		termLab:   make([]uint32, k),
		termSelEd: make([]uint64, k),
		termSel:   vertexSel,
	}
	for i := 0; i < k; i++ {
		v := base.Terminals[i]
		for bit, name := range e.vertexLabels {
			if base.G.HasVertexLabel(name, v) {
				p.termLab[i] |= 1 << uint(bit)
			}
		}
	}
	for _, edge := range base.G.Edges() {
		// Base graphs from wterm.BaseFromBag have terminal rank == local ID.
		a, b := edge.U, edge.V
		p.termAdj[a] |= 1 << uint(b)
		p.termAdj[b] |= 1 << uint(a)
		if edgeSel[[2]int{a, b}] || edgeSel[[2]int{b, a}] {
			p.termSelEd[a] |= 1 << uint(b)
			p.termSelEd[b] |= 1 << uint(a)
		}
	}
	return p, nil
}

// HomBase implements regular.Predicate.
func (e *Engine) HomBase(base *wterm.TerminalGraph) ([]regular.BaseClass, error) {
	k := base.NumTerminals()
	var out []regular.BaseClass
	emit := func(vertexSel uint64, edgeSel map[[2]int]bool, sel regular.Selection) error {
		p, err := e.basePattern(base, vertexSel, edgeSel)
		if err != nil {
			return err
		}
		key := p.canonicalizeAndKey(e.threshold)
		out = append(out, regular.BaseClass{Class: patClass{key: key, pat: p}, Sel: sel})
		return nil
	}
	switch e.SetKind() {
	case regular.SetNone:
		if err := emit(0, nil, regular.Selection{}); err != nil {
			return nil, err
		}
	case regular.SetVertex:
		if k >= 63 {
			return nil, fmt.Errorf("msoauto: cannot enumerate selections over %d terminals", k)
		}
		for mask := uint64(0); mask < 1<<uint(k); mask++ {
			if err := emit(mask, nil, regular.Selection{VertexMask: mask}); err != nil {
				return nil, err
			}
		}
	case regular.SetEdge:
		edges := base.G.Edges()
		if len(edges) >= 62 {
			return nil, fmt.Errorf("msoauto: cannot enumerate selections over %d edges", len(edges))
		}
		for mask := uint64(0); mask < 1<<uint(len(edges)); mask++ {
			edgeSel := map[[2]int]bool{}
			var pairs [][2]int
			for i, edge := range edges {
				if mask&(1<<uint(i)) != 0 {
					edgeSel[[2]int{edge.U, edge.V}] = true
					pairs = append(pairs, [2]int{edge.U, edge.V})
				}
			}
			if err := emit(0, edgeSel, regular.Selection{EdgePairs: regular.NormalizeEdgePairs(pairs)}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Compose implements regular.Predicate (the update function ⊙_f): forgotten
// terminals of each operand become internal pattern nodes, terminal
// attributes are merged (selections and labels must agree on glued
// terminals, edges are disjoint under the edge-owned grammar), the internal
// forests are concatenated, and the result is re-canonicalized.
func (e *Engine) Compose(f wterm.Gluing, c1, c2 regular.Class) (regular.Class, bool, error) {
	a, ok := c1.(patClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrPattern, c1)
	}
	b, ok := c2.(patClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrPattern, c2)
	}
	p1 := clonePattern(a.pat)
	p2 := clonePattern(b.pat)
	// Forget operand terminals not mapped to the result (descending rank so
	// indices stay valid).
	if err := forgetAll(p1, f.Forgotten1()); err != nil {
		return nil, false, err
	}
	if err := forgetAll(p2, f.Forgotten2()); err != nil {
		return nil, false, err
	}
	// Remaining operand ranks map to result ranks; build the permutations.
	perm1, perm2, err := resultPerms(f)
	if err != nil {
		return nil, false, err
	}
	if err := p1.permuteTerminals(perm1, len(f.Rows)); err != nil {
		return nil, false, err
	}
	if err := p2.permuteTerminals(perm2, len(f.Rows)); err != nil {
		return nil, false, err
	}
	merged, compatible, err := mergePatterns(p1, p2, f)
	if err != nil || !compatible {
		return nil, compatible, err
	}
	// Identical merge shapes canonicalize identically, so the pre-canonical
	// encoding is a sound memo key for the recursive sort-and-clamp.
	pre := merged.preCanonicalKey()
	e.mu.Lock()
	if pc, hit := e.canonCache[pre]; hit {
		e.stats.CanonHits++
		e.mu.Unlock()
		return pc, true, nil
	}
	e.stats.CanonMisses++
	e.mu.Unlock()
	key := merged.canonicalizeAndKey(e.threshold)
	pc := patClass{key: key, pat: merged}
	e.mu.Lock()
	if len(e.canonCache) >= engineCacheCap {
		e.canonCache = map[string]patClass{}
	}
	e.canonCache[pre] = pc
	e.mu.Unlock()
	return pc, true, nil
}

func clonePattern(p *pattern) *pattern {
	c := &pattern{
		k:         p.k,
		termAdj:   append([]uint64(nil), p.termAdj...),
		termLab:   append([]uint32(nil), p.termLab...),
		termSel:   p.termSel,
		termSelEd: append([]uint64(nil), p.termSelEd...),
		roots:     make([]*pnode, len(p.roots)),
	}
	for i, r := range p.roots {
		c.roots[i] = clonePNode(r)
	}
	return c
}

func forgetAll(p *pattern, ranks1Based []int) error {
	for i := len(ranks1Based) - 1; i >= 0; i-- {
		if err := p.forgetTerminal(ranks1Based[i] - 1); err != nil {
			return err
		}
	}
	return nil
}

// resultPerms maps each operand's post-forget terminal index to its result
// rank (-1 when the operand does not contribute that result terminal).
func resultPerms(f wterm.Gluing) (perm1, perm2 []int, err error) {
	kept1 := keptRanks(f, 0)
	kept2 := keptRanks(f, 1)
	perm1 = make([]int, len(kept1))
	perm2 = make([]int, len(kept2))
	pos1 := map[int]int{}
	for i, r := range kept1 {
		pos1[r] = i
	}
	pos2 := map[int]int{}
	for i, r := range kept2 {
		pos2[r] = i
	}
	for r, row := range f.Rows {
		if row[0] != 0 {
			perm1[pos1[row[0]]] = r
		}
		if row[1] != 0 {
			perm2[pos2[row[1]]] = r
		}
	}
	return perm1, perm2, nil
}

// keptRanks lists the operand's 1-based ranks used by the gluing, in
// increasing order (matching the index order after forgetting).
func keptRanks(f wterm.Gluing, col int) []int {
	var out []int
	n := f.N1
	if col == 1 {
		n = f.N2
	}
	used := make([]bool, n+1)
	for _, row := range f.Rows {
		if row[col] != 0 {
			used[row[col]] = true
		}
	}
	for i := 1; i <= n; i++ {
		if used[i] {
			out = append(out, i)
		}
	}
	return out
}

// permuteTerminals reindexes the pattern's terminals: old index i becomes
// perm[i], in a result space of size newK. Unassigned result terminals get
// empty attributes (they come from the other operand).
func (p *pattern) permuteTerminals(perm []int, newK int) error {
	if len(perm) != p.k {
		return fmt.Errorf("%w: perm size %d != k %d", ErrPattern, len(perm), p.k)
	}
	adj := make([]uint64, newK)
	lab := make([]uint32, newK)
	selEd := make([]uint64, newK)
	var sel uint64
	for i := 0; i < p.k; i++ {
		t := perm[i]
		adj[t] = permuteMask(p.termAdj[i], perm)
		lab[t] = p.termLab[i]
		selEd[t] = permuteMask(p.termSelEd[i], perm)
		if p.termSel&(1<<uint(i)) != 0 {
			sel |= 1 << uint(t)
		}
	}
	var remap func(n *pnode)
	remap = func(n *pnode) {
		n.termAdj = permuteMask(n.termAdj, perm)
		n.selTermEdg = permuteMask(n.selTermEdg, perm)
		for _, ch := range n.children {
			remap(ch)
		}
	}
	for _, r := range p.roots {
		remap(r)
	}
	p.k = newK
	p.termAdj, p.termLab, p.termSelEd, p.termSel = adj, lab, selEd, sel
	return nil
}

func permuteMask(mask uint64, perm []int) uint64 {
	var out uint64
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			out |= 1 << uint(perm[i])
		}
		mask >>= 1
	}
	return out
}

// mergePatterns unions two permuted patterns over the same result terminal
// space, enforcing the §4.1 compatibility conditions.
func mergePatterns(p1, p2 *pattern, f wterm.Gluing) (*pattern, bool, error) {
	k := len(f.Rows)
	out := &pattern{
		k:         k,
		termAdj:   make([]uint64, k),
		termLab:   make([]uint32, k),
		termSelEd: make([]uint64, k),
	}
	for r, row := range f.Rows {
		has1, has2 := row[0] != 0, row[1] != 0
		switch {
		case has1 && has2:
			// Glued terminal: the same original vertex in both operands.
			if p1.termLab[r] != p2.termLab[r] {
				return nil, false, nil
			}
			sel1 := p1.termSel&(1<<uint(r)) != 0
			sel2 := p2.termSel&(1<<uint(r)) != 0
			if sel1 != sel2 {
				return nil, false, nil
			}
			if p1.termAdj[r]&p2.termAdj[r] != 0 {
				return nil, false, fmt.Errorf("%w: duplicate bag edge (edge-owned grammar violated)", ErrPattern)
			}
			out.termAdj[r] = p1.termAdj[r] | p2.termAdj[r]
			out.termLab[r] = p1.termLab[r]
			out.termSelEd[r] = p1.termSelEd[r] | p2.termSelEd[r]
			if sel1 {
				out.termSel |= 1 << uint(r)
			}
		case has1:
			out.termAdj[r] = p1.termAdj[r]
			out.termLab[r] = p1.termLab[r]
			out.termSelEd[r] = p1.termSelEd[r]
			if p1.termSel&(1<<uint(r)) != 0 {
				out.termSel |= 1 << uint(r)
			}
		case has2:
			out.termAdj[r] = p2.termAdj[r]
			out.termLab[r] = p2.termLab[r]
			out.termSelEd[r] = p2.termSelEd[r]
			if p2.termSel&(1<<uint(r)) != 0 {
				out.termSel |= 1 << uint(r)
			}
		}
	}
	out.roots = append(append([]*pnode(nil), p1.roots...), p2.roots...)
	return out, true, nil
}

// Accepting implements regular.Predicate: the class is accepting iff the
// formula holds on the pattern's representative, with the free set variable
// bound to the pattern's recorded selection. Results are cached per key.
func (e *Engine) Accepting(c regular.Class) (bool, error) {
	pc, ok := c.(patClass)
	if !ok {
		return false, fmt.Errorf("%w: %T", ErrPattern, c)
	}
	e.mu.Lock()
	if v, hit := e.acceptCache[pc.key]; hit {
		e.stats.AcceptHits++
		e.mu.Unlock()
		return v, nil
	}
	e.stats.AcceptMisses++
	e.mu.Unlock()

	g, selVerts, selEdges, err := pc.pat.materialize(e.vertexLabels, nil)
	if err != nil {
		return false, err
	}
	if limit := e.representativeLimit(); g.NumVertices() > limit {
		return false, fmt.Errorf("%w: class representative has %d vertices (limit %d for this formula); "+
			"lower Options.Threshold so the kernelization prunes harder", ErrLimit, g.NumVertices(), limit)
	}
	ev := &mso.Evaluator{G: g, MaxSetUniverse: e.opts.MaxSetUniverse}
	asg := mso.Assignment{}
	switch e.SetKind() {
	case regular.SetVertex:
		set := bitset.New(g.NumVertices())
		for _, v := range selVerts {
			set.Add(v)
		}
		asg[e.opts.FreeSetVar] = mso.VertexSetValue(set)
	case regular.SetEdge:
		set := bitset.New(g.NumEdges())
		for _, id := range selEdges {
			set.Add(id)
		}
		asg[e.opts.FreeSetVar] = mso.EdgeSetValue(set)
	}
	v, err := ev.Eval(e.formula, asg)
	if err != nil {
		return false, err
	}
	e.mu.Lock()
	e.acceptCache[pc.key] = v
	e.mu.Unlock()
	return v, nil
}

// representativeLimit bounds the representative size so that naive
// evaluation in Accepting stays tractable: the cost is roughly
// (2^size)^s * size^q for s set quantifiers and q element quantifiers.
func (e *Engine) representativeLimit() int {
	switch mso.SetQuantifierCount(e.formula) {
	case 0:
		return setFreeLimit(mso.QuantifierRank(e.formula))
	case 1:
		return 18
	default:
		return 12
	}
}

// setFreeLimit is the representative limit of a set-free formula of
// quantifier rank q: the largest size whose size^q stays within what rank 4
// costs at 40 vertices (40^4 evaluations), and never below 40. A rank-3
// formula such as triangle-freeness may so evaluate representatives of up
// to 136 vertices.
func setFreeLimit(q int) int {
	const floor, budget = 40, 40 * 40 * 40 * 40
	if q < 1 {
		q = 1
	}
	limit := int(math.Pow(budget, 1/float64(q)) + 1e-9)
	if limit < floor {
		return floor
	}
	return limit
}

// Selection implements regular.Predicate.
func (e *Engine) Selection(c regular.Class) (regular.Selection, error) {
	pc, ok := c.(patClass)
	if !ok {
		return regular.Selection{}, fmt.Errorf("%w: %T", ErrPattern, c)
	}
	sel := regular.Selection{VertexMask: pc.pat.termSel}
	for i := 0; i < pc.pat.k; i++ {
		for j := i + 1; j < pc.pat.k; j++ {
			if pc.pat.termSelEd[i]&(1<<uint(j)) != 0 {
				sel.EdgePairs = append(sel.EdgePairs, [2]int{i, j})
			}
		}
	}
	return sel, nil
}

// DecodeClass implements regular.Predicate, memoized per wire key.
func (e *Engine) DecodeClass(data []byte) (regular.Class, error) {
	wire := string(data)
	e.mu.Lock()
	if pc, hit := e.decodeCache[wire]; hit {
		e.stats.DecodeHits++
		e.mu.Unlock()
		return pc, nil
	}
	e.stats.DecodeMisses++
	e.mu.Unlock()
	p, err := decodePattern(data)
	if err != nil {
		return nil, err
	}
	// Re-canonicalize defensively; the key should round-trip.
	key := p.canonicalizeAndKey(e.threshold)
	pc := patClass{key: key, pat: p}
	e.mu.Lock()
	if len(e.decodeCache) >= engineCacheCap {
		e.decodeCache = map[string]patClass{}
	}
	e.decodeCache[wire] = pc
	e.mu.Unlock()
	return pc, nil
}
