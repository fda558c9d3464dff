package treedepth

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Decomposition is a tree decomposition (Definition 2.3) whose decomposition
// tree is given by a parent array over its nodes; node i has bag Bags[i]
// (sorted vertex IDs of the underlying graph). In the canonical decomposition
// of Lemma 2.4, decomposition nodes coincide with graph vertices.
type Decomposition struct {
	Parent []int
	Bags   [][]int
}

// Width returns the width of the decomposition (max bag size minus one).
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// Children returns for each decomposition node its children, sorted.
func (d *Decomposition) Children() [][]int {
	ch := make([][]int, len(d.Parent))
	for v, p := range d.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], v)
		}
	}
	for _, c := range ch {
		sort.Ints(c)
	}
	return ch
}

// Roots returns the roots of the decomposition forest.
func (d *Decomposition) Roots() []int {
	var roots []int
	for v, p := range d.Parent {
		if p < 0 {
			roots = append(roots, v)
		}
	}
	return roots
}

// Verify checks the three tree-decomposition conditions of Definition 2.3
// against g: vertex coverage, edge coverage, and connectivity of the set of
// bags containing each vertex.
func (d *Decomposition) Verify(g *graph.Graph) error {
	n := g.NumVertices()
	covered := make([]bool, n)
	for _, bag := range d.Bags {
		for _, v := range bag {
			if v < 0 || v >= n {
				return fmt.Errorf("treedepth: bag vertex %d out of range", v)
			}
			covered[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if !covered[v] {
			return fmt.Errorf("treedepth: vertex %d in no bag", v)
		}
	}
	inBag := func(bag []int, v int) bool {
		i := sort.SearchInts(bag, v)
		return i < len(bag) && bag[i] == v
	}
	for _, e := range g.Edges() {
		found := false
		for _, bag := range d.Bags {
			if inBag(bag, e.U) && inBag(bag, e.V) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("treedepth: edge {%d,%d} in no bag", e.U, e.V)
		}
	}
	// Connectivity: the decomposition nodes containing v must induce a
	// connected subforest. Count nodes containing v, and nodes containing v
	// whose parent also contains v; connected iff exactly one node containing
	// v has no parent containing v.
	for v := 0; v < n; v++ {
		tops := 0
		for i, bag := range d.Bags {
			if !inBag(bag, v) {
				continue
			}
			p := d.Parent[i]
			if p < 0 || !inBag(d.Bags[p], v) {
				tops++
			}
		}
		if tops != 1 {
			return fmt.Errorf("treedepth: bags containing vertex %d form %d connected pieces", v, tops)
		}
	}
	return nil
}

// CanonicalDecomposition builds the canonical tree decomposition of Lemma
// 2.4 from an elimination forest: decomposition node u has bag
// {u} ∪ ancestors(u), and the decomposition tree is the forest itself. Its
// width is depth(f) - 1.
func CanonicalDecomposition(f *Forest) *Decomposition {
	n := len(f.Parent)
	bags := make([][]int, n)
	for u := 0; u < n; u++ {
		bag := f.PathToRoot(u)
		sort.Ints(bag)
		bags[u] = bag
	}
	return &Decomposition{Parent: append([]int(nil), f.Parent...), Bags: bags}
}
