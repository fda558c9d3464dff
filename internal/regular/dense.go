package regular

import (
	"fmt"

	"repro/internal/wterm"
)

// A dense Table is the interned counterpart of ClassSet/OptTable/CountTable:
// class IDs in canonical (key-sorted) order with a parallel value slice. The
// canonical order is established once per table with integer rank
// comparisons instead of the per-fold string sort the map-based tables
// performed, and fold accumulation indexes a dense scratch array instead of
// hashing string keys. Decision, optimization and counting run the same
// recursion (Theorem 6.1, Section 6); a Semiring says how values combine.

// Semiring selects how a dense table's values combine: "times" joins the
// values of a compatible (acc, child) pair, "plus" merges two values that
// reach the same class.
type Semiring uint8

// The table algebras of the four DP modes.
const (
	Exists  Semiring = iota // decision: no values (Table.Vals is nil)
	MaxPlus                 // maximization: checked +, then max
	MinPlus                 // minimization: checked +, then min
	Count                   // counting: checked ×, then checked +
)

// OptSemiring returns the optimization semiring for the given direction.
func OptSemiring(maximize bool) Semiring {
	if maximize {
		return MaxPlus
	}
	return MinPlus
}

// Optimizes reports whether s keeps the best value per class, and so
// produces back-pointers.
func (s Semiring) Optimizes() bool { return s == MaxPlus || s == MinPlus }

// times joins an acc value with a child value.
func (s Semiring) times(a, b int64) (int64, error) {
	switch s {
	case MaxPlus, MinPlus:
		return AddWeights(a, b)
	case Count:
		return mulCheck(a, b)
	}
	return 0, nil
}

// plus merges v into an entry holding cur. replaced reports that v won, so
// the entry's back-pointer moves to v's operands (ties keep the first).
func (s Semiring) plus(cur, v int64) (sum int64, replaced bool, err error) {
	switch s {
	case MaxPlus:
		if v > cur {
			return v, true, nil
		}
	case MinPlus:
		if v < cur {
			return v, true, nil
		}
	case Count:
		sum, err = addCheck(cur, v)
		return sum, false, err
	}
	return cur, false, nil
}

// Table is a dense DP table: IDs in canonical order and, except under
// Exists, Vals[i] the value of class IDs[i] (best weight or count).
type Table struct {
	IDs  []ClassID
	Vals []int64
}

// Index returns the position of id in the table, or -1 when it is absent.
func (t Table) Index(id ClassID) int {
	for i, x := range t.IDs {
		if x == id {
			return i
		}
	}
	return -1
}

// Back is the ARGOPT back-pointer of one result class: the operand classes
// that produced its best value.
type Back struct {
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

// Fold computes the table of f(acc, child) under s: the dense counterpart
// of FoldDecide, FoldOpt and FoldCount. Iteration order matches the
// map-based folds (canonical order, first strictly-better pair wins), so
// values, back-pointers and tie-breaking are identical. The optimization
// semirings also return back[i], the operands of the result's IDs[i].
func (c *Cached) Fold(s Semiring, g GluingID, acc, child Table) (Table, []Back, error) {
	c.nextEpoch()
	out := Table{IDs: make([]ClassID, 0, len(acc.IDs))}
	if s != Exists {
		out.Vals = make([]int64, 0, len(acc.IDs))
	}
	var back []Back
	if s.Optimizes() {
		back = make([]Back, 0, len(acc.IDs))
	}
	for ai, a := range acc.IDs {
		for bi, b := range child.IDs {
			id, ok, err := c.ComposeIDs(g, a, b)
			if err != nil {
				return Table{}, nil, err
			}
			if !ok {
				continue
			}
			var v int64
			if s != Exists {
				if v, err = s.times(acc.Vals[ai], child.Vals[bi]); err != nil {
					return Table{}, nil, err
				}
			}
			if back, err = c.put(s, &out, back, id, v, Back{Acc: a, Child: b}); err != nil {
				return Table{}, nil, err
			}
		}
	}
	back = c.sortTable(&out, back)
	return out, back, nil
}

// put adds value v of class id to the table being built, merging it into
// the entry an earlier pair of this epoch made for id. back, when non-nil,
// records b for the entry's best value.
func (c *Cached) put(s Semiring, t *Table, back []Back, id ClassID, v int64, b Back) ([]Back, error) {
	c.ensureScratch(id)
	if c.stamp[id] != c.epoch {
		c.stamp[id] = c.epoch
		c.slot[id] = int32(len(t.IDs))
		t.IDs = append(t.IDs, id)
		if t.Vals != nil {
			t.Vals = append(t.Vals, v)
		}
		if back != nil {
			back = append(back, b)
		}
		return back, nil
	}
	if t.Vals == nil {
		return back, nil
	}
	i := c.slot[id]
	sum, replaced, err := s.plus(t.Vals[i], v)
	if err != nil {
		return nil, err
	}
	t.Vals[i] = sum
	if replaced && back != nil {
		back[i] = b
	}
	return back, nil
}

// Base builds the table of a base graph under s: one entry per class, worth
// its selection's weight (the best one per class) under the optimization
// semirings and its number of selections under Count. ownerRank is the
// terminal rank of the base's owner vertex. keep, when non-nil, admits only
// the classes whose selection it accepts (the marked-set evaluation).
func (c *Cached) Base(s Semiring, base *wterm.TerminalGraph, ownerRank int, keep func(Selection) bool) (Table, error) {
	classes, err := c.homBase(base)
	if err != nil {
		return Table{}, err
	}
	c.reserveBase(len(classes))
	c.nextEpoch()
	out := Table{IDs: make([]ClassID, 0, len(classes))}
	if s != Exists {
		out.Vals = make([]int64, 0, len(classes))
	}
	for _, bc := range classes {
		if keep != nil && !keep(bc.Sel) {
			continue
		}
		var v int64
		switch {
		case s.Optimizes():
			if v, err = BaseWeight(base, ownerRank, bc.Sel); err != nil {
				return Table{}, err
			}
		case s == Count:
			v = 1
		}
		if _, err := c.put(s, &out, nil, c.Intern(bc.Class), v, Back{}); err != nil {
			return Table{}, err
		}
	}
	c.sortTable(&out, nil)
	return out, nil
}

// sortTable establishes canonical order on a freshly built table, permuting
// Vals and back along with IDs. It takes the write lock in shared mode:
// rank maintenance mutates the interner even on the read path.
func (c *Cached) sortTable(t *Table, back []Back) []Back {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	if isCanonical(c.in, t.IDs) {
		return back
	}
	ord := make([]int32, len(t.IDs))
	for i := range ord {
		ord[i] = int32(i)
	}
	rank := c.in.rank
	insertionSortBy(ord, func(i, j int32) bool { return rank[t.IDs[i]] < rank[t.IDs[j]] })
	t.IDs = permute(t.IDs, ord)
	if t.Vals != nil {
		t.Vals = permute(t.Vals, ord)
	}
	if back != nil {
		back = permute(back, ord)
	}
	return back
}

// permute returns xs reordered so that element i is xs[ord[i]].
func permute[T any](xs []T, ord []int32) []T {
	out := make([]T, len(ord))
	for i, o := range ord {
		out[i] = xs[o]
	}
	return out
}

// isCanonical reports whether ids are already rank-sorted (the common case
// when folds reproduce previously seen tables). It leaves in.rank current.
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

// ReduceAccepting folds the accepting classes of t under s, in canonical
// order as the map path's AnyAccepting, BestAccepting and TotalAccepting.
// It returns the deciding class and value: under Exists the first accepting
// class (and stops there), under the optimization semirings the best one,
// under Count the first one with the sum of all accepting counts. found is
// false when no class accepts.
func (c *Cached) ReduceAccepting(s Semiring, t Table) (best ClassID, val int64, found bool, err error) {
	best = NoClass
	for i, id := range t.IDs {
		ok, err := c.AcceptingID(id)
		if err != nil {
			return NoClass, 0, false, err
		}
		if !ok {
			continue
		}
		if s == Exists {
			return id, 0, true, nil
		}
		if best == NoClass {
			best, val = id, t.Vals[i]
			continue
		}
		sum, replaced, err := s.plus(val, t.Vals[i])
		if err != nil {
			return NoClass, 0, false, err
		}
		val = sum
		if replaced {
			best = id
		}
	}
	return best, val, best != NoClass, nil
}
