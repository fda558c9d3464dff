package regular_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/regular"
	"repro/internal/regular/predicates"
	"repro/internal/wterm"
)

// keyClass is a minimal Class for interner tests.
type keyClass string

func (k keyClass) Key() string { return string(k) }

func TestAddWeightsOverflow(t *testing.T) {
	for _, tc := range []struct {
		a, b     int64
		overflow bool
	}{
		{3, 5, false},
		{math.MaxInt64, 0, false},
		{math.MaxInt64, 1, true},
		{math.MaxInt64/2 + 1, math.MaxInt64/2 + 1, true},
		{math.MinInt64, -1, true},
		{math.MinInt64 + 1, -1, false},
		{-5, 5, false},
	} {
		got, err := regular.AddWeights(tc.a, tc.b)
		if tc.overflow {
			if !errors.Is(err, regular.ErrOverflow) {
				t.Errorf("AddWeights(%d, %d) = %d, %v; want ErrOverflow", tc.a, tc.b, got, err)
			}
		} else {
			if err != nil || got != tc.a+tc.b {
				t.Errorf("AddWeights(%d, %d) = %d, %v; want %d", tc.a, tc.b, got, err, tc.a+tc.b)
			}
		}
	}
}

// starFixture is a 3-vertex star rooted at 0 with the leaf weights chosen so
// summing both leaves overflows int64: the weight of the two-leaf independent
// set used to wrap around silently before AddWeights was checked. bases[0]
// is the root's base graph (owner rank 0), bases[1] and bases[2] the
// leaves' (owner rank 1); g1 and g2 fold the leaves into the root.
func starFixture(t *testing.T) (bases [3]*wterm.TerminalGraph, g1, g2 wterm.Gluing) {
	t.Helper()
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.SetVertexWeight(1, math.MaxInt64/2+1)
	g.SetVertexWeight(2, math.MaxInt64/2+1)
	var err error
	for i, bag := range [][]int{{0}, {0, 1}, {0, 2}} {
		if bases[i], err = wterm.BaseFromBag(g, bag, i); err != nil {
			t.Fatal(err)
		}
	}
	if g1, err = wterm.GluingFromBags([]int{0}, []int{0, 1}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if g2, err = wterm.GluingFromBags([]int{0}, []int{0, 2}, []int{0}); err != nil {
		t.Fatal(err)
	}
	return bases, g1, g2
}

func TestFoldOptOverflow(t *testing.T) {
	pred := predicates.IndependentSet{}
	bases, g1, g2 := starFixture(t)
	var tabs [3]regular.OptTable
	for i, base := range bases {
		var err error
		if tabs[i], err = regular.BaseOptTable(pred, base, min(i, 1), true); err != nil {
			t.Fatal(err)
		}
	}
	acc, _, err := regular.FoldOpt(pred, g1, tabs[0], tabs[1], true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := regular.FoldOpt(pred, g2, acc, tabs[2], true); !errors.Is(err, regular.ErrOverflow) {
		t.Fatalf("FoldOpt = %v, want ErrOverflow", err)
	}
}

// TestFoldOptDenseOverflow pins ErrOverflow on every overflowing operation
// of the dense path: the (max,+) sum of the star's two heavy leaves, and
// the counting semiring's checked × and + in Fold and + in the accepting
// reducer. A base table cannot overflow: each of its entries counts one per
// enumerated selection.
func TestFoldOptDenseOverflow(t *testing.T) {
	c := regular.NewCached(predicates.IndependentSet{})
	bases, g1, g2 := starFixture(t)
	base := func(s regular.Semiring, i int) regular.Table {
		t.Helper()
		tab, err := c.Base(s, bases[i], min(i, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	acc, _, err := c.Fold(regular.MaxPlus, c.InternGluing(g1), base(regular.MaxPlus, 0), base(regular.MaxPlus, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Fold(regular.MaxPlus, c.InternGluing(g2), acc, base(regular.MaxPlus, 2)); !errors.Is(err, regular.ErrOverflow) {
		t.Fatalf("opt +: Fold = %v, want ErrOverflow", err)
	}

	// Folding leaf 1 into the root: the root's "0 unselected" class pairs
	// with both of the leaf's "0 unselected" classes, so its count is a sum
	// of two products.
	withVals := func(tab regular.Table, vals ...int64) regular.Table {
		if len(vals) != len(tab.Vals) {
			t.Fatalf("table has %d entries, fixture gives %d values", len(tab.Vals), len(vals))
		}
		tab.Vals = vals
		return tab
	}
	root, leaf := base(regular.Count, 0), base(regular.Count, 1)
	for _, tc := range []struct {
		name      string
		acc, leaf []int64
	}{
		{"count ×", []int64{1 << 40, 1 << 40}, []int64{1 << 40, 1 << 40, 1 << 40}},
		{"count +", []int64{1 << 62, 1 << 62}, []int64{1, 1, 1}},
	} {
		_, _, err := c.Fold(regular.Count, c.InternGluing(g1), withVals(root, tc.acc...), withVals(leaf, tc.leaf...))
		if !errors.Is(err, regular.ErrOverflow) {
			t.Errorf("%s: Fold = %v, want ErrOverflow", tc.name, err)
		}
	}
	if _, _, _, err := c.ReduceAccepting(regular.Count, withVals(leaf, math.MaxInt64, 1, 1)); !errors.Is(err, regular.ErrOverflow) {
		t.Errorf("count + in ReduceAccepting = %v, want ErrOverflow", err)
	}
}

func TestInternerCanonicalOrder(t *testing.T) {
	in := regular.NewInterner()
	keys := []string{"m", "a", "z", "b", "aa", "y", "c", ""}
	var ids []regular.ClassID
	for _, k := range keys {
		ids = append(ids, in.Intern(keyClass(k)))
	}
	if in.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(keys))
	}
	// Interning again must return the same IDs, and Lookup must agree.
	for i, k := range keys {
		if got := in.Intern(keyClass(k)); got != ids[i] {
			t.Fatalf("re-Intern(%q) = %d, want %d", k, got, ids[i])
		}
		got, ok := in.Lookup(k)
		if !ok || got != ids[i] {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", k, got, ok, ids[i])
		}
		if in.Key(ids[i]) != k {
			t.Fatalf("Key(%d) = %q, want %q", ids[i], in.Key(ids[i]), k)
		}
	}
	// SortCanonical must equal lexicographic key order, including after new
	// interleaved insertions.
	in.Intern(keyClass("ab"))
	all := make([]regular.ClassID, in.Len())
	for i := range all {
		all[i] = regular.ClassID(in.Len() - 1 - i) // reversed insertion order
	}
	in.SortCanonical(all)
	sorted := append([]string{}, keys...)
	sorted = append(sorted, "ab")
	sort.Strings(sorted)
	for i, id := range all {
		if in.Key(id) != sorted[i] {
			t.Fatalf("canonical position %d: key %q, want %q", i, in.Key(id), sorted[i])
		}
	}
}

func TestInternWireFastPath(t *testing.T) {
	c := regular.NewCached(predicates.IndependentSet{})
	base := edgeBase(t)
	classes, err := c.HomBase(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) == 0 {
		t.Fatal("no base classes")
	}
	first := classes[0].Class
	// A never-seen wire encoding must decode (miss); re-interning the same
	// bytes must resolve by key lookup alone (hit).
	id1, err := c.InternWire([]byte(first.Key()))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DecodeMisses != 1 || st.DecodeHits != 0 {
		t.Fatalf("after first decode: %+v", st)
	}
	id2, err := c.InternWire([]byte(first.Key()))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("InternWire ids diverged: %d vs %d", id1, id2)
	}
	st = c.Stats()
	if st.DecodeHits != 1 {
		t.Fatalf("second decode did not hit: %+v", st)
	}
	// An already-interned class's key must hit without ever decoding.
	second := classes[len(classes)-1].Class
	c.Intern(second)
	before := c.Stats().DecodeMisses
	if _, err := c.InternWire([]byte(second.Key())); err != nil {
		t.Fatal(err)
	}
	if c.Stats().DecodeMisses != before {
		t.Fatal("interned class key should resolve without DecodeClass")
	}
}

// Compose memoization must hit on repeats, evict deterministically at the
// cap, and keep returning correct classes across flushes.
func TestComposeMemoAndEviction(t *testing.T) {
	pred := predicates.IndependentSet{}
	c := regular.NewCached(pred)
	c.SetComposeCap(2)
	base := edgeBase(t)
	classes, err := c.HomBase(base)
	if err != nil {
		t.Fatal(err)
	}
	glue, err := wterm.GluingFromBags([]int{0, 1}, []int{0, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	g := c.InternGluing(glue)
	type pair struct{ a, b regular.ClassID }
	var pairs []pair
	for _, c1 := range classes {
		for _, c2 := range classes {
			pairs = append(pairs, pair{c.Intern(c1.Class), c.Intern(c2.Class)})
		}
	}
	// Reference results from the unwrapped predicate.
	want := make(map[pair]string)
	wantOK := make(map[pair]bool)
	for _, p := range pairs {
		cl, ok, err := pred.Compose(glue, c.Interner().Class(p.a), c.Interner().Class(p.b))
		if err != nil {
			t.Fatal(err)
		}
		wantOK[p] = ok
		if ok {
			want[p] = cl.Key()
		}
	}
	// Three passes over all pairs with a cap of 2 force repeated flushes; the
	// results must stay correct throughout.
	for pass := 0; pass < 3; pass++ {
		for _, p := range pairs {
			id, ok, err := c.ComposeIDs(g, p.a, p.b)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK[p] {
				t.Fatalf("pass %d: compatibility diverged for %v", pass, p)
			}
			if ok && c.Interner().Key(id) != want[p] {
				t.Fatalf("pass %d: class diverged for %v", pass, p)
			}
		}
	}
	st := c.Stats()
	if st.ComposeEvictions == 0 {
		t.Fatalf("cap 2 over %d pairs × 3 passes should have evicted: %+v", len(pairs), st)
	}
	if st.ComposeEntries > 2 {
		t.Fatalf("live entries %d exceed cap 2", st.ComposeEntries)
	}
	if st.ComposeMisses == 0 || st.ComposeHits+st.ComposeMisses != int64(3*len(pairs)) {
		t.Fatalf("hit/miss accounting off: %+v (pairs=%d)", st, len(pairs))
	}
}

func TestAcceptingAndSelectionMemo(t *testing.T) {
	c := regular.NewCached(predicates.IndependentSet{})
	base := edgeBase(t)
	classes, err := c.HomBase(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, bc := range classes {
		id := c.Intern(bc.Class)
		a1, err := c.AcceptingID(id)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := c.AcceptingID(id)
		if err != nil {
			t.Fatal(err)
		}
		if a1 != a2 {
			t.Fatal("memoized Accepting diverged from first call")
		}
		s1, err := c.SelectionID(id)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := c.SelectionID(id)
		if err != nil {
			t.Fatal(err)
		}
		if s1.VertexMask != s2.VertexMask || fmt.Sprint(s1.EdgePairs) != fmt.Sprint(s2.EdgePairs) {
			t.Fatal("memoized Selection diverged from first call")
		}
	}
	st := c.Stats()
	if st.AcceptHits == 0 || st.SelectionHits == 0 {
		t.Fatalf("second calls should hit the memo: %+v", st)
	}
}

// GluingKey must separate gluings that compose differently and identify ones
// that are signature-equal.
func TestGluingKey(t *testing.T) {
	g1, err := wterm.GluingFromBags([]int{0}, []int{0, 1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := wterm.GluingFromBags([]int{0}, []int{0, 2}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	g3, err := wterm.GluingFromBags([]int{0, 1}, []int{0, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if regular.GluingKey(g1) != regular.GluingKey(g2) {
		t.Fatal("rank-identical gluings over different vertices must share a signature")
	}
	if regular.GluingKey(g1) == regular.GluingKey(g3) {
		t.Fatal("different shapes must have different signatures")
	}
	c := regular.NewCached(predicates.IndependentSet{})
	if c.InternGluing(g1) != c.InternGluing(g2) {
		t.Fatal("signature-equal gluings must intern to one ID")
	}
	if c.InternGluing(g1) == c.InternGluing(g3) {
		t.Fatal("distinct signatures must intern to distinct IDs")
	}
}
