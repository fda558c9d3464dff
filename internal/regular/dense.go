package regular

import (
	"fmt"

	"repro/internal/wterm"
)

// Dense tables are the interned counterparts of ClassSet/OptTable/CountTable:
// class IDs in canonical (key-sorted) order with parallel value slices. The
// canonical order is established once per table with integer rank
// comparisons (Interner.SortCanonical) instead of the per-fold string sort
// the map-based tables performed, and fold accumulation indexes a dense
// scratch array instead of hashing string keys.

// DenseSet is a decision-mode table: reachable class IDs in canonical order.
type DenseSet struct {
	IDs []ClassID
}

// DenseOpt is an OPT table: Weights[i] is the best weight of class IDs[i].
type DenseOpt struct {
	IDs     []ClassID
	Weights []int64
}

// DenseCount is a COUNT table: Counts[i] is the assignment count of IDs[i].
type DenseCount struct {
	IDs    []ClassID
	Counts []int64
}

// DenseBack is the ARGOPT back-pointer of one result class: the operand
// classes that produced its best weight.
type DenseBack struct {
	Acc   ClassID
	Child ClassID
}

// AddWeights is checked signed 64-bit addition for OPT weight sums,
// returning ErrOverflow instead of wrapping silently.
func AddWeights(a, b int64) (int64, error) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, fmt.Errorf("%w: weight %d + %d", ErrOverflow, a, b)
	}
	return s, nil
}

// nextEpoch advances the fold-scratch epoch, clearing stamps on the (in
// practice unreachable) uint32 wraparound.
func (c *Cached) nextEpoch() {
	c.epoch++
	if c.epoch == 0 {
		for i := range c.stamp {
			c.stamp[i] = 0
		}
		c.epoch = 1
	}
}

// reserveBase sizes a private cache's still empty interner for a base
// table's classes (see Interner.reserve). A shared interner is long-lived
// and keeps growing as it goes.
func (c *Cached) reserveBase(n int) {
	if c.mu == nil {
		c.in.reserve(n)
	}
}

// ensureScratch extends the fold scratch to cover id.
func (c *Cached) ensureScratch(id ClassID) {
	for int(id) >= len(c.slot) {
		c.slot = append(c.slot, 0)
		c.stamp = append(c.stamp, 0)
	}
}

// FoldDecideDense computes the class set of f(acc, child); the dense
// counterpart of FoldDecide, iterating both operands in canonical order.
func (c *Cached) FoldDecideDense(g GluingID, acc, child DenseSet) (DenseSet, error) {
	c.nextEpoch()
	out := make([]ClassID, 0, len(acc.IDs))
	for _, a := range acc.IDs {
		for _, b := range child.IDs {
			id, ok, err := c.ComposeIDs(g, a, b)
			if err != nil {
				return DenseSet{}, err
			}
			if !ok {
				continue
			}
			c.ensureScratch(id)
			if c.stamp[id] != c.epoch {
				c.stamp[id] = c.epoch
				out = append(out, id)
			}
		}
	}
	c.sortCanonical(out)
	return DenseSet{IDs: out}, nil
}

// FoldOptDense computes OPT(f(acc, child)) and per-result back-pointers; the
// dense counterpart of FoldOpt. Iteration order matches the map-based fold
// (canonical order, first strictly-better pair wins), so back-pointers and
// tie-breaking are identical.
func (c *Cached) FoldOptDense(g GluingID, acc, child DenseOpt, maximize bool) (DenseOpt, map[ClassID]DenseBack, error) {
	c.nextEpoch()
	ids := make([]ClassID, 0, len(acc.IDs))
	weights := make([]int64, 0, len(acc.IDs))
	backs := make([]DenseBack, 0, len(acc.IDs))
	for ai, a := range acc.IDs {
		aw := acc.Weights[ai]
		for bi, b := range child.IDs {
			id, ok, err := c.ComposeIDs(g, a, b)
			if err != nil {
				return DenseOpt{}, nil, err
			}
			if !ok {
				continue
			}
			w, err := AddWeights(aw, child.Weights[bi])
			if err != nil {
				return DenseOpt{}, nil, err
			}
			c.ensureScratch(id)
			if c.stamp[id] != c.epoch {
				c.stamp[id] = c.epoch
				c.slot[id] = int32(len(ids))
				ids = append(ids, id)
				weights = append(weights, w)
				backs = append(backs, DenseBack{Acc: a, Child: b})
			} else if s := c.slot[id]; Better(w, weights[s], maximize) {
				weights[s] = w
				backs[s] = DenseBack{Acc: a, Child: b}
			}
		}
	}
	out := DenseOpt{IDs: ids, Weights: weights}
	back := make(map[ClassID]DenseBack, len(ids))
	for i, id := range ids {
		back[id] = backs[i]
	}
	c.sortOpt(&out)
	return out, back, nil
}

// FoldCountDense computes COUNT(f(acc, child)) with overflow checking; the
// dense counterpart of FoldCount.
func (c *Cached) FoldCountDense(g GluingID, acc, child DenseCount) (DenseCount, error) {
	c.nextEpoch()
	ids := make([]ClassID, 0, len(acc.IDs))
	counts := make([]int64, 0, len(acc.IDs))
	for ai, a := range acc.IDs {
		ac := acc.Counts[ai]
		for bi, b := range child.IDs {
			id, ok, err := c.ComposeIDs(g, a, b)
			if err != nil {
				return DenseCount{}, err
			}
			if !ok {
				continue
			}
			prod, err := mulCheck(ac, child.Counts[bi])
			if err != nil {
				return DenseCount{}, err
			}
			c.ensureScratch(id)
			if c.stamp[id] != c.epoch {
				c.stamp[id] = c.epoch
				c.slot[id] = int32(len(ids))
				ids = append(ids, id)
				counts = append(counts, prod)
			} else {
				s := c.slot[id]
				counts[s], err = addCheck(counts[s], prod)
				if err != nil {
					return DenseCount{}, err
				}
			}
		}
	}
	out := DenseCount{IDs: ids, Counts: counts}
	c.sortCount(&out)
	return out, nil
}

// sortOpt establishes canonical order on a freshly-folded OPT table. It
// takes the write lock in shared mode: rank maintenance mutates the interner
// even on the read path.
func (c *Cached) sortOpt(t *DenseOpt) {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	if isCanonical(c.in, t.IDs) {
		return
	}
	ord := make([]int32, len(t.IDs))
	for i := range ord {
		ord[i] = int32(i)
	}
	c.in.ensureRank()
	rank := c.in.rank
	insertionSortBy(ord, func(i, j int32) bool { return rank[t.IDs[i]] < rank[t.IDs[j]] })
	ids := make([]ClassID, len(t.IDs))
	ws := make([]int64, len(t.IDs))
	for i, o := range ord {
		ids[i] = t.IDs[o]
		ws[i] = t.Weights[o]
	}
	t.IDs, t.Weights = ids, ws
}

// sortCount establishes canonical order on a freshly-folded COUNT table
// (write-locked in shared mode, as sortOpt).
func (c *Cached) sortCount(t *DenseCount) {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	if isCanonical(c.in, t.IDs) {
		return
	}
	ord := make([]int32, len(t.IDs))
	for i := range ord {
		ord[i] = int32(i)
	}
	c.in.ensureRank()
	rank := c.in.rank
	insertionSortBy(ord, func(i, j int32) bool { return rank[t.IDs[i]] < rank[t.IDs[j]] })
	ids := make([]ClassID, len(t.IDs))
	cs := make([]int64, len(t.IDs))
	for i, o := range ord {
		ids[i] = t.IDs[o]
		cs[i] = t.Counts[o]
	}
	t.IDs, t.Counts = ids, cs
}

// isCanonical reports whether ids are already rank-sorted (the common case
// when folds reproduce previously seen tables).
func isCanonical(in *Interner, ids []ClassID) bool {
	in.ensureRank()
	for i := 1; i < len(ids); i++ {
		if in.rank[ids[i-1]] >= in.rank[ids[i]] {
			return false
		}
	}
	return true
}

// insertionSortBy sorts small index slices without sort.Slice's closure
// allocation; DP tables are small, so insertion sort wins on constants.
func insertionSortBy(xs []int32, less func(a, b int32) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// --- accepting reducers (canonical iteration order, matching the map path) ---

// AnyAcceptingDense reports whether some class in the set is accepting.
func (c *Cached) AnyAcceptingDense(s DenseSet) (bool, error) {
	for _, id := range s.IDs {
		ok, err := c.AcceptingID(id)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// BestAcceptingDense returns the accepting class with the best weight
// (found=false when no accepting class is reachable).
func (c *Cached) BestAcceptingDense(t DenseOpt, maximize bool) (ClassID, int64, bool, error) {
	best := NoClass
	var bestW int64
	for i, id := range t.IDs {
		ok, err := c.AcceptingID(id)
		if err != nil {
			return NoClass, 0, false, err
		}
		if !ok {
			continue
		}
		if best == NoClass || Better(t.Weights[i], bestW, maximize) {
			best = id
			bestW = t.Weights[i]
		}
	}
	return best, bestW, best != NoClass, nil
}

// TotalAcceptingDense sums the counts of accepting classes.
func (c *Cached) TotalAcceptingDense(t DenseCount) (int64, error) {
	var total int64
	for i, id := range t.IDs {
		ok, err := c.AcceptingID(id)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		total, err = addCheck(total, t.Counts[i])
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// --- base-table builders (dense counterparts of BaseClassSet & co.) ---

// BaseDenseSet builds the decision table of a base graph.
func (c *Cached) BaseDenseSet(base *wterm.TerminalGraph) (DenseSet, error) {
	classes, err := c.homBase(base)
	if err != nil {
		return DenseSet{}, err
	}
	c.reserveBase(len(classes))
	c.nextEpoch()
	out := make([]ClassID, 0, len(classes))
	for _, bc := range classes {
		id := c.Intern(bc.Class)
		c.ensureScratch(id)
		if c.stamp[id] != c.epoch {
			c.stamp[id] = c.epoch
			out = append(out, id)
		}
	}
	c.sortCanonical(out)
	return DenseSet{IDs: out}, nil
}

// BaseDenseOpt builds OPT(base), keeping the best weight per class in
// enumeration order (first-better wins, as BaseOptTable).
func (c *Cached) BaseDenseOpt(base *wterm.TerminalGraph, ownerRank int, maximize bool) (DenseOpt, error) {
	classes, err := c.homBase(base)
	if err != nil {
		return DenseOpt{}, err
	}
	c.reserveBase(len(classes))
	c.nextEpoch()
	ids := make([]ClassID, 0, len(classes))
	weights := make([]int64, 0, len(classes))
	for _, bc := range classes {
		w, err := BaseWeight(base, ownerRank, bc.Sel)
		if err != nil {
			return DenseOpt{}, err
		}
		id := c.Intern(bc.Class)
		c.ensureScratch(id)
		if c.stamp[id] != c.epoch {
			c.stamp[id] = c.epoch
			c.slot[id] = int32(len(ids))
			ids = append(ids, id)
			weights = append(weights, w)
		} else if s := c.slot[id]; Better(w, weights[s], maximize) {
			weights[s] = w
		}
	}
	out := DenseOpt{IDs: ids, Weights: weights}
	c.sortOpt(&out)
	return out, nil
}

// BaseDenseCount builds COUNT(base): one assignment per enumerated
// selection.
func (c *Cached) BaseDenseCount(base *wterm.TerminalGraph) (DenseCount, error) {
	classes, err := c.homBase(base)
	if err != nil {
		return DenseCount{}, err
	}
	c.reserveBase(len(classes))
	c.nextEpoch()
	ids := make([]ClassID, 0, len(classes))
	counts := make([]int64, 0, len(classes))
	for _, bc := range classes {
		id := c.Intern(bc.Class)
		c.ensureScratch(id)
		if c.stamp[id] != c.epoch {
			c.stamp[id] = c.epoch
			c.slot[id] = int32(len(ids))
			ids = append(ids, id)
			counts = append(counts, 1)
		} else {
			s := c.slot[id]
			var err error
			counts[s], err = addCheck(counts[s], 1)
			if err != nil {
				return DenseCount{}, err
			}
		}
	}
	out := DenseCount{IDs: ids, Counts: counts}
	c.sortCount(&out)
	return out, nil
}

// --- conversions to/from the map-based tables (wire boundaries, tests) ---

// InternClassSet interns a map table into canonical dense form.
func (c *Cached) InternClassSet(s ClassSet) DenseSet {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	out := make([]ClassID, 0, len(s))
	for _, k := range s.Keys() {
		out = append(out, c.in.InternKeyed(k, s[k]))
	}
	// Keys() is sorted, so out is already canonical.
	return DenseSet{IDs: out}
}

// InternOptTable interns a map OPT table into canonical dense form.
func (c *Cached) InternOptTable(t OptTable) DenseOpt {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	keys := t.Keys()
	out := DenseOpt{
		IDs:     make([]ClassID, 0, len(keys)),
		Weights: make([]int64, 0, len(keys)),
	}
	for _, k := range keys {
		out.IDs = append(out.IDs, c.in.InternKeyed(k, t[k].Class))
		out.Weights = append(out.Weights, t[k].Weight)
	}
	return out
}

// InternCountTable interns a map COUNT table into canonical dense form.
func (c *Cached) InternCountTable(t CountTable) DenseCount {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	keys := t.Keys()
	out := DenseCount{
		IDs:    make([]ClassID, 0, len(keys)),
		Counts: make([]int64, 0, len(keys)),
	}
	for _, k := range keys {
		out.IDs = append(out.IDs, c.in.InternKeyed(k, t[k].Class))
		out.Counts = append(out.Counts, t[k].Count)
	}
	return out
}
