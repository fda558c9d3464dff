package protocols_test

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/mso"
	"repro/internal/mso/msolib"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
	"repro/internal/seq"
	"repro/internal/treedepth"
)

func opts(seed int64) congest.Options {
	return congest.Options{IDSeed: seed}
}

func TestElimTreeValidOnBoundedTreedepth(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	for trial := 0; trial < 12; trial++ {
		n := 4 + r.Intn(30)
		d := 2 + r.Intn(2)
		g, _ := gen.BoundedTreedepth(n, d, 0.5, r.Int63())
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: d}, opts(r.Int63()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.TdExceeded {
			t.Fatalf("trial %d: unexpected treedepth report (td <= %d by construction)", trial, d)
		}
		if err := res.Forest.VerifyElimination(g); err != nil {
			t.Fatalf("trial %d: protocol tree invalid: %v", trial, err)
		}
		if depth := res.Forest.Depth(); depth > 1<<uint(d) {
			t.Fatalf("trial %d: tree depth %d > 2^%d", trial, depth, d)
		}
		// Lemma 5.3: every node's bag must be itself plus its ancestors.
		for v, out := range res.Outputs {
			if out.Depth != res.Forest.DepthOf(v) {
				t.Fatalf("trial %d: node %d depth %d != forest depth %d", trial, v, out.Depth, res.Forest.DepthOf(v))
			}
			if len(out.Bag) != out.Depth {
				t.Fatalf("trial %d: node %d bag size %d != depth %d", trial, v, len(out.Bag), out.Depth)
			}
		}
	}
}

func TestTdExceededReported(t *testing.T) {
	// td(P40) = 6 > 2, so d = 2 must be reported as exceeded.
	g := gen.Path(40)
	res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 2}, opts(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TdExceeded {
		t.Fatal("expected large-treedepth report for P40 with d=2")
	}
	// With d = 6 it must succeed.
	res, err = protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 6}, opts(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.TdExceeded {
		t.Fatal("d=6 suffices for P40")
	}
	if !res.Accepted {
		t.Fatal("P40 is acyclic")
	}
}

func TestDistributedDecisionMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(402))
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(14)
		d := 2 + r.Intn(2)
		g, _ := gen.BoundedTreedepth(n, d, 0.6, r.Int63())
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: d}, opts(r.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := mso.NewEvaluator(g).Eval(msolib.Acyclic(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.TdExceeded || res.Accepted != want {
			t.Fatalf("trial %d: distributed acyclic = %v (td %v), oracle %v", trial, res.Accepted, res.TdExceeded, want)
		}
	}
}

func TestDistributedThreeColorability(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"C5", gen.Cycle(5), true},
		{"K4", gen.Complete(4), false},
		{"K5", gen.Complete(5), false},
		{"grid", gen.Grid(3, 3), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := protocols.Run(tc.g, protocols.Config{Pred: predicates.KColorability{K: 3}, Mode: protocols.ModeDecide, D: 5}, opts(11))
			if err != nil {
				t.Fatal(err)
			}
			if res.TdExceeded {
				t.Fatal("unexpected treedepth report")
			}
			if res.Accepted != tc.want {
				t.Fatalf("3-colorable = %v, want %v", res.Accepted, tc.want)
			}
		})
	}
}

func TestDistributedOptimizationMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(403))
	for trial := 0; trial < 8; trial++ {
		n := 4 + r.Intn(8)
		d := 2
		g, _ := gen.BoundedTreedepth(n, d, 0.6, r.Int63())
		gen.AssignRandomWeights(g, 10, r.Int63())

		// Maximum independent set.
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeOptimize, D: d, Maximize: true}, opts(r.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := mso.NewEvaluator(g).OptimizeSet(msolib.IndependentSet(), msolib.FreeSet, mso.KindVertexSet, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.TdExceeded || !res.Found || res.Weight != want.Weight {
			t.Fatalf("trial %d: MaxIS dist=%d oracle=%d (td %v)", trial, res.Weight, want.Weight, res.TdExceeded)
		}
		// The distributed selection must be an actual optimal independent set.
		okSel, err := mso.NewEvaluator(g).Eval(msolib.IndependentSet(),
			mso.Assignment{msolib.FreeSet: mso.VertexSetValue(res.Selected)})
		if err != nil {
			t.Fatal(err)
		}
		var selWeight int64
		res.Selected.ForEach(func(v int) { selWeight += g.VertexWeight(v) })
		if !okSel || selWeight != want.Weight {
			t.Fatalf("trial %d: selected set invalid (ok=%v weight=%d want=%d)", trial, okSel, selWeight, want.Weight)
		}
	}
}

func TestDistributedMST(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for trial := 0; trial < 6; trial++ {
		n := 4 + r.Intn(6)
		g, _ := gen.BoundedTreedepth(n, 2, 0.7, r.Int63())
		gen.AssignRandomWeights(g, 20, r.Int63())
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.SpanningTree{}, Mode: protocols.ModeOptimize, D: 2}, opts(r.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := mso.NewEvaluator(g).OptimizeSet(msolib.SpanningTree(), msolib.FreeSet, mso.KindEdgeSet, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.TdExceeded || !res.Found || res.Weight != want.Weight {
			t.Fatalf("trial %d: MST dist=%d oracle=%d", trial, res.Weight, want.Weight)
		}
		// Check the selected edges form a spanning tree of the right weight.
		if res.SelectedEdges.Count() != n-1 {
			t.Fatalf("trial %d: MST has %d edges, want %d", trial, res.SelectedEdges.Count(), n-1)
		}
		var w int64
		res.SelectedEdges.ForEach(func(e int) { w += g.EdgeWeight(e) })
		if w != want.Weight {
			t.Fatalf("trial %d: selected edges weigh %d, want %d", trial, w, want.Weight)
		}
		sub := graph.New(n)
		res.SelectedEdges.ForEach(func(e int) {
			edge := g.Edge(e)
			sub.MustAddEdge(edge.U, edge.V)
		})
		if !sub.IsConnected() {
			t.Fatalf("trial %d: selected edges not spanning", trial)
		}
	}
}

func TestDistributedCounting(t *testing.T) {
	r := rand.New(rand.NewSource(405))
	for trial := 0; trial < 8; trial++ {
		n := 4 + r.Intn(10)
		g, _ := gen.BoundedTreedepth(n, 3, 0.7, r.Int63())
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Triangles{}, Mode: protocols.ModeCount, D: 3}, opts(r.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					if g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(a, c) {
						want++
					}
				}
			}
		}
		if res.TdExceeded || res.Count != want {
			t.Fatalf("trial %d: triangles = %d, want %d", trial, res.Count, want)
		}
	}
}

func TestDistributedCheckMarked(t *testing.T) {
	// P4 unit weights, MaxIS weight 2.
	base := gen.Path(4)
	for v := 0; v < 4; v++ {
		base.SetVertexWeight(v, 1)
	}
	mark := func(vs ...int) *graph.Graph {
		g := base.Clone()
		for _, v := range vs {
			g.SetVertexLabel(protocols.MarkLabel, v)
		}
		return g
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"optimal {0,2}", mark(0, 2), true},
		{"optimal {1,3}", mark(1, 3), true},
		{"suboptimal {0}", mark(0), false},
		{"invalid {0,1}", mark(0, 1), false},
		{"empty", mark(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := protocols.Run(tc.g, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeCheckMarked, D: 3, Maximize: true}, opts(5))
			if err != nil {
				t.Fatal(err)
			}
			if res.TdExceeded {
				t.Fatal("unexpected treedepth report")
			}
			if res.Accepted != tc.want {
				t.Fatalf("CheckMarked = %v, want %v", res.Accepted, tc.want)
			}
		})
	}
}

func TestDistributedCheckMarkedMST(t *testing.T) {
	g := gen.Cycle(4)
	for _, e := range g.Edges() {
		g.SetEdgeWeight(e.ID, 1)
	}
	heavy, _ := g.EdgeBetween(3, 0)
	g.SetEdgeWeight(heavy, 50)
	// Mark the three light edges: an MST.
	good := g.Clone()
	for _, e := range g.Edges() {
		if e.ID != heavy {
			good.SetEdgeLabel(protocols.MarkLabel, e.ID)
		}
	}
	res, err := protocols.Run(good, protocols.Config{Pred: predicates.SpanningTree{}, Mode: protocols.ModeCheckMarked, D: 3}, opts(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("light spanning tree should verify as minimal")
	}
	// Mark a spanning tree including the heavy edge: valid but not minimal.
	bad := g.Clone()
	count := 0
	for _, e := range bad.Edges() {
		if count < 2 && e.ID != heavy {
			bad.SetEdgeLabel(protocols.MarkLabel, e.ID)
			count++
		}
	}
	bad.SetEdgeLabel(protocols.MarkLabel, heavy)
	res, err = protocols.Run(bad, protocols.Config{Pred: predicates.SpanningTree{}, Mode: protocols.ModeCheckMarked, D: 3}, opts(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("heavy spanning tree is not minimal")
	}
}

func TestDistributedMatchesSequentialAcrossSeeds(t *testing.T) {
	// Adversarial ID assignments must not change results.
	g, _ := gen.BoundedTreedepth(14, 3, 0.5, 99)
	gen.AssignRandomWeights(g, 10, 100)
	f := treedepth.DFSForest(g)
	run, err := seq.New(g, f, predicates.VertexCover{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := run.Optimize(false)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.VertexCover{}, Mode: protocols.ModeOptimize, D: 3}, opts(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.TdExceeded || res.Weight != want.Weight {
			t.Fatalf("seed %d: dist=%d seq=%d", seed, res.Weight, want.Weight)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	g := gen.Path(3)
	if _, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 0}, opts(1)); err == nil {
		t.Fatal("d = 0 should be rejected")
	}
}

func TestStatsWithinBandwidth(t *testing.T) {
	g, _ := gen.BoundedTreedepth(24, 3, 0.4, 17)
	res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 3}, opts(17))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMsgBits > res.Stats.Bandwidth {
		t.Fatalf("message of %d bits exceeded the %d-bit budget", res.Stats.MaxMsgBits, res.Stats.Bandwidth)
	}
	if res.Stats.Rounds == 0 || res.Stats.Messages == 0 {
		t.Fatal("stats should be populated")
	}
}

func TestSingleVertex(t *testing.T) {
	g := graph.New(1)
	res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 1}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TdExceeded || !res.Accepted {
		t.Fatalf("single vertex: %+v", res)
	}
}
