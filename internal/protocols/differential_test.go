package protocols_test

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular"
	"repro/internal/regular/predicates"
	"repro/internal/seq"
	"repro/internal/treedepth"
)

// The differential harness cross-checks the full distributed pipeline
// (Algorithm 2 + Lemma 5.3 + Theorem 6.1) against the sequential
// Algorithm 1 oracle on a population of seeded random graphs of small
// treedepth, under both the identity and an adversarial ID permutation.
// Any divergence is a correctness bug in one of the two engines.

const diffGraphs = 50

type diffCase struct {
	name string
	g    *graph.Graph
	d    int
}

func differentialGraphs(t *testing.T) []diffCase {
	t.Helper()
	count := diffGraphs
	if testing.Short() {
		count = 10
	}
	cases := make([]diffCase, 0, count)
	for i := 0; i < count; i++ {
		d := 2 + i%2 // treedepth parameter 2 or 3
		n := 8 + (i%7)*4
		prob := 0.1 + 0.05*float64(i%4)
		g, _ := gen.BoundedTreedepth(n, d, prob, int64(1000+i))
		gen.AssignRandomWeights(g, 10, int64(2000+i))
		cases = append(cases, diffCase{name: fmt.Sprintf("g%02d_n%d_d%d", i, n, d), g: g, d: d})
	}
	return cases
}

// idSeeds is the ID-assignment suite: identity and an adversarial
// pseudo-random permutation (distinct per graph via the offset).
func idSeeds(i int) []int64 { return []int64{0, int64(0xC0FFEE + 31*i)} }

func TestDifferentialDecideVsSequential(t *testing.T) {
	preds := []struct {
		name string
		pred regular.Predicate
	}{
		{"acyclic", predicates.Acyclicity{}},
		{"2-colorable", predicates.KColorability{K: 2}},
		{"connected", predicates.Connectivity{}},
	}
	for i, tc := range differentialGraphs(t) {
		forest := treedepth.DFSForest(tc.g)
		for _, p := range preds {
			oracle, err := seq.New(tc.g, forest, p.pred)
			if err != nil {
				t.Fatalf("%s/%s: oracle: %v", tc.name, p.name, err)
			}
			want, err := oracle.Decide()
			if err != nil {
				t.Fatalf("%s/%s: oracle decide: %v", tc.name, p.name, err)
			}
			for _, seed := range idSeeds(i) {
				res, err := protocols.Run(tc.g, protocols.Config{Pred: p.pred, Mode: protocols.ModeDecide, D: tc.d}, congest.Options{IDSeed: seed})
				if err != nil {
					t.Fatalf("%s/%s seed=%d: %v", tc.name, p.name, seed, err)
				}
				if res.TdExceeded {
					t.Fatalf("%s/%s seed=%d: unexpected treedepth report", tc.name, p.name, seed)
				}
				if res.Accepted != want {
					t.Errorf("%s/%s seed=%d: distributed=%v oracle=%v", tc.name, p.name, seed, res.Accepted, want)
				}
			}
		}
	}
}

func TestDifferentialOptimizeVsSequential(t *testing.T) {
	preds := []struct {
		name     string
		pred     regular.Predicate
		maximize bool
	}{
		{"max-independent-set", predicates.IndependentSet{}, true},
		{"min-vertex-cover", predicates.VertexCover{}, false},
	}
	for i, tc := range differentialGraphs(t) {
		if i%5 != 0 {
			continue // optimization runs are heavier; sample the population
		}
		forest := treedepth.DFSForest(tc.g)
		for _, p := range preds {
			oracle, err := seq.New(tc.g, forest, p.pred)
			if err != nil {
				t.Fatalf("%s/%s: oracle: %v", tc.name, p.name, err)
			}
			want, err := oracle.Optimize(p.maximize)
			if err != nil {
				t.Fatalf("%s/%s: oracle optimize: %v", tc.name, p.name, err)
			}
			for _, seed := range idSeeds(i) {
				res, err := protocols.Run(tc.g, protocols.Config{Pred: p.pred, Mode: protocols.ModeOptimize, D: tc.d, Maximize: p.maximize}, congest.Options{IDSeed: seed})
				if err != nil {
					t.Fatalf("%s/%s seed=%d: %v", tc.name, p.name, seed, err)
				}
				if res.TdExceeded {
					t.Fatalf("%s/%s seed=%d: unexpected treedepth report", tc.name, p.name, seed)
				}
				if res.Found != want.Found {
					t.Errorf("%s/%s seed=%d: found=%v oracle=%v", tc.name, p.name, seed, res.Found, want.Found)
					continue
				}
				if res.Found && res.Weight != want.Weight {
					t.Errorf("%s/%s seed=%d: weight=%d oracle=%d", tc.name, p.name, seed, res.Weight, want.Weight)
				}
			}
		}
	}
}

func TestDifferentialCountVsSequential(t *testing.T) {
	for i, tc := range differentialGraphs(t) {
		if i%10 != 3 {
			continue // counting tables are wide; a handful of instances suffices
		}
		forest := treedepth.DFSForest(tc.g)
		oracle, err := seq.New(tc.g, forest, predicates.Triangles{})
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		want, err := oracle.Count()
		if err != nil {
			t.Fatalf("%s: oracle count: %v", tc.name, err)
		}
		for _, seed := range idSeeds(i) {
			res, err := protocols.Run(tc.g, protocols.Config{Pred: predicates.Triangles{}, Mode: protocols.ModeCount, D: tc.d}, congest.Options{IDSeed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", tc.name, seed, err)
			}
			if res.TdExceeded {
				t.Fatalf("%s seed=%d: unexpected treedepth report", tc.name, seed)
			}
			if res.Count != want {
				t.Errorf("%s seed=%d: count=%d oracle=%d", tc.name, seed, res.Count, want)
			}
		}
	}
}

// TestDifferentialCheckMarkedVsSequential checks optmarked (Section 6):
// distributed ModeCheckMarked against seq's Runner.CheckMarked, for a vertex
// and an edge predicate. Each graph marks seq's optimum (a true case) and
// that optimum with one element toggled: element x, which weighs 0, so the
// set keeps the optimal weight and its verdict turns on φ alone (false when
// the toggle breaks the independent set or the spanning tree), and element
// x+1, which in general changes the weight.
func TestDifferentialCheckMarkedVsSequential(t *testing.T) {
	preds := []struct {
		name     string
		pred     regular.Predicate
		maximize bool
	}{
		{"max-independent-set", predicates.IndependentSet{}, true},
		{"min-spanning-tree", predicates.SpanningTree{}, false},
	}
	for i, tc := range differentialGraphs(t) {
		forest := treedepth.DFSForest(tc.g)
		for _, p := range preds {
			edges := p.pred.SetKind() == regular.SetEdge
			g := tc.g.Clone()
			universe := g.NumVertices()
			if edges {
				universe = g.NumEdges()
			}
			x := i % universe
			if edges {
				g.SetEdgeWeight(x, 0)
			} else {
				g.SetVertexWeight(x, 0)
			}
			oracle, err := seq.New(g, forest, p.pred)
			if err != nil {
				t.Fatalf("%s/%s: oracle: %v", tc.name, p.name, err)
			}
			opt, err := oracle.Optimize(p.maximize)
			if err != nil || !opt.Found {
				t.Fatalf("%s/%s: oracle optimize: found=%v err=%v", tc.name, p.name, opt.Found, err)
			}
			best := opt.Vertices
			if edges {
				best = opt.Edges
			}
			toggle := func(y int) *bitset.Set {
				s := best.Clone()
				if s.Contains(y) {
					s.Remove(y)
				} else {
					s.Add(y)
				}
				return s
			}
			for _, marked := range []*bitset.Set{best, toggle(x), toggle((x + 1) % universe)} {
				want, err := oracle.CheckMarked(marked, p.maximize)
				if err != nil {
					t.Fatalf("%s/%s: oracle check: %v", tc.name, p.name, err)
				}
				if marked == best && !want {
					t.Fatalf("%s/%s: oracle rejects its own optimum %v", tc.name, p.name, marked)
				}
				mg := g.Clone()
				marked.ForEach(func(y int) {
					if edges {
						mg.SetEdgeLabel(protocols.MarkLabel, y)
					} else {
						mg.SetVertexLabel(protocols.MarkLabel, y)
					}
				})
				for _, seed := range idSeeds(i) {
					res, err := protocols.Run(mg, protocols.Config{Pred: p.pred, Mode: protocols.ModeCheckMarked, D: tc.d, Maximize: p.maximize}, congest.Options{IDSeed: seed})
					if err != nil {
						t.Fatalf("%s/%s seed=%d: %v", tc.name, p.name, seed, err)
					}
					if res.TdExceeded {
						t.Fatalf("%s/%s seed=%d: unexpected treedepth report", tc.name, p.name, seed)
					}
					if res.Accepted != want {
						t.Errorf("%s/%s seed=%d marked=%v: distributed=%v oracle=%v", tc.name, p.name, seed, marked, res.Accepted, want)
					}
				}
			}
		}
	}
}
