package experiments

import (
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/expansion"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/mso"
	"repro/internal/mso/msolib"
	"repro/internal/msoauto"
	"repro/internal/protocols"
	"repro/internal/regular"
	"repro/internal/regular/predicates"
	"repro/internal/seq"
	"repro/internal/treedepth"
)

// T4Counting validates the Section 6 counting extension: exact triangle and
// perfect-matching counts against brute force.
func T4Counting(quick bool) (*Table, error) {
	t := &Table{
		ID:     "T4",
		Title:  "Distributed counting vs brute force",
		Claim:  "Section 6: countφ solvable in the same O(1) rounds as optimization",
		Header: []string{"quantity", "n", "distributed", "brute force", "rounds", "match"},
	}
	sizes := []int{12, 20, 28}
	if quick {
		sizes = []int{12, 20}
	}
	for _, n := range sizes {
		g, _ := gen.BoundedTreedepth(n, 3, 0.5, int64(n)*3)
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Triangles{}, Mode: protocols.ModeCount, D: 3}, congest.Options{IDSeed: 4})
		if err != nil {
			return nil, fmt.Errorf("T4 triangles n=%d: %w", n, err)
		}
		var brute int64
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					if g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(a, c) {
						brute++
					}
				}
			}
		}
		t.AddRow("triangles", n, res.Count, brute, res.Stats.Rounds, res.Count == brute)
	}
	// Perfect matchings on even cycles: exactly 2.
	for _, n := range []int{6, 10} {
		g := gen.Cycle(n)
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Matching{Perfect: true}, Mode: protocols.ModeCount, D: 4}, congest.Options{IDSeed: 4})
		if err != nil {
			return nil, fmt.Errorf("T4 pm n=%d: %w", n, err)
		}
		t.AddRow("perfect matchings", n, res.Count, 2, res.Stats.Rounds, res.Count == 2)
	}
	return t, nil
}

// T5OptMarked validates the optmarked verification of Section 6: an optimal
// marked set verifies, suboptimal and infeasible ones do not.
func T5OptMarked(quick bool) (*Table, error) {
	t := &Table{
		ID:     "T5",
		Title:  "optmarked verification (is the marked set an optimal solution?)",
		Claim:  "Section 6: optmarkedφ decided in g(d, φ) rounds",
		Header: []string{"problem", "marked set", "accepted", "expected", "match"},
	}
	n := 20
	if quick {
		n = 12
	}
	// Max independent set: mark the distributed optimum, then perturb.
	g, _ := gen.BoundedTreedepth(n, 2, 0.4, 99)
	gen.AssignRandomWeights(g, 5, 98)
	opt, err := protocols.Run(g, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeOptimize, D: 2, Maximize: true}, congest.Options{IDSeed: 5})
	if err != nil {
		return nil, err
	}
	good := g.Clone()
	opt.Selected.ForEach(func(v int) { good.SetVertexLabel(protocols.MarkLabel, v) })
	res, err := protocols.Run(good, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeCheckMarked, D: 2, Maximize: true}, congest.Options{IDSeed: 5})
	if err != nil {
		return nil, err
	}
	t.AddRow("max-independent-set", "the optimum", res.Accepted, true, res.Accepted == true)

	empty := g.Clone() // the empty set is independent but (weights >= 1) not maximum
	res, err = protocols.Run(empty, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeCheckMarked, D: 2, Maximize: true}, congest.Options{IDSeed: 5})
	if err != nil {
		return nil, err
	}
	t.AddRow("max-independent-set", "empty set", res.Accepted, false, res.Accepted == false)

	invalid := g.Clone() // mark both endpoints of some edge
	e := invalid.Edge(0)
	invalid.SetVertexLabel(protocols.MarkLabel, e.U)
	invalid.SetVertexLabel(protocols.MarkLabel, e.V)
	res, err = protocols.Run(invalid, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeCheckMarked, D: 2, Maximize: true}, congest.Options{IDSeed: 5})
	if err != nil {
		return nil, err
	}
	t.AddRow("max-independent-set", "adjacent pair", res.Accepted, false, res.Accepted == false)

	// MST: mark the distributed MST, then swap in a heavier edge.
	mst, err := protocols.Run(g, protocols.Config{Pred: predicates.SpanningTree{}, Mode: protocols.ModeOptimize, D: 2}, congest.Options{IDSeed: 5})
	if err != nil {
		return nil, err
	}
	goodT := g.Clone()
	mst.SelectedEdges.ForEach(func(id int) { goodT.SetEdgeLabel(protocols.MarkLabel, id) })
	res, err = protocols.Run(goodT, protocols.Config{Pred: predicates.SpanningTree{}, Mode: protocols.ModeCheckMarked, D: 2}, congest.Options{IDSeed: 5})
	if err != nil {
		return nil, err
	}
	t.AddRow("mst", "the MST", res.Accepted, true, res.Accepted == true)

	noneT := g.Clone()
	res, err = protocols.Run(noneT, protocols.Config{Pred: predicates.SpanningTree{}, Mode: protocols.ModeCheckMarked, D: 2}, congest.Options{IDSeed: 5})
	if err != nil {
		return nil, err
	}
	t.AddRow("mst", "empty set", res.Accepted, false, res.Accepted == false)
	return t, nil
}

// T6HFreeExpansion validates Corollary 7.3: H-freeness on bounded-expansion
// networks in O(log n) rounds.
func T6HFreeExpansion(quick bool) (*Table, error) {
	t := &Table{
		ID:     "T6",
		Title:  "H-freeness on bounded expansion (maximal outerplanar networks)",
		Claim:  "Corollary 7.3: O(log n) rounds; answers exact",
		Header: []string{"pattern", "n", "h-free", "oracle", "total rounds", "peel rounds", "colors", "max d", "rounds/log2(n)"},
	}
	sizes := []int{64, 128, 256}
	if !quick {
		sizes = append(sizes, 512, 1024)
	}
	for _, n := range sizes {
		g := gen.MaximalOuterplanar(n, int64(n))
		for _, pat := range []struct {
			name string
			h    *graph.Graph
		}{
			{"K3", gen.Complete(3)},
			{"C4", gen.Cycle(4)},
		} {
			res, err := expansion.HFreeDistributed(g, pat.h, 8, congest.Options{IDSeed: 6})
			if err != nil {
				return nil, fmt.Errorf("T6 %s n=%d: %w", pat.name, n, err)
			}
			oracle := "-"
			// The FO oracle costs n^|V(H)| evaluator steps; keep it to the
			// smallest size per pattern.
			if n <= 64 && pat.h.NumVertices() <= 3 {
				want, err := mso.NewEvaluator(g).Eval(msolib.HSubgraphFree(pat.h), nil)
				if err != nil {
					return nil, err
				}
				oracle = fmt.Sprintf("%v", want)
				if want != res.HFree {
					oracle += " MISMATCH"
				}
			}
			ratio := float64(res.TotalRounds) / math.Log2(float64(n))
			t.AddRow(pat.name, n, res.HFree, oracle, res.TotalRounds, res.PeelRounds,
				res.NumColors, res.MaxD, fmt.Sprintf("%.1f", ratio))
		}
	}
	t.Notes = append(t.Notes,
		"maximal outerplanar graphs always contain triangles; C4-freeness varies with the triangulation",
		"total rounds = distributed peeling (the Θ(log n) term) + per-part-subset Theorem 6.1 runs",
		"the subset phase would be an n-independent constant under the exact Nešetřil–Ossona de Mendez",
		"decomposition; our greedy substitute degrades slowly with n ('max d' shows the escalation),",
		"which inflates rounds but — by construction — never correctness (see DESIGN.md)")
	return t, nil
}

// T7GenericVsCompiled validates that the generic MSO engine, the
// hand-compiled predicates, and the naive oracle agree, and compares their
// homomorphism-class table sizes (|C| proxies).
func T7GenericVsCompiled(quick bool) (*Table, error) {
	t := &Table{
		ID:     "T7",
		Title:  "Generic MSO engine vs compiled predicates vs naive oracle",
		Claim:  "Theorem 4.2 realized two ways; identical answers, different |C|",
		Header: []string{"formula", "graphs", "agree", "max class bytes (generic)", "max class bytes (compiled)"},
	}
	trials := 10
	if quick {
		trials = 5
	}
	cases := []struct {
		name     string
		formula  mso.Formula
		compiled regular.Predicate
	}{
		{"acyclic", msolib.Acyclic(), predicates.Acyclicity{}},
		{"2-colorable", msolib.KColorable(2), predicates.KColorability{K: 2}},
		{"triangle-free", msolib.TriangleFree(), tfree()},
	}
	for _, tc := range cases {
		agree := 0
		maxGeneric, maxCompiled := 0, 0 // largest class wire encodings
		engine, err := msoauto.New(tc.formula, msoauto.Options{})
		if err != nil {
			return nil, err
		}
		for trial := 0; trial < trials; trial++ {
			// Keep representatives within the generic engine's evaluation
			// budget for MSO formulas with set quantifiers.
			g, _ := gen.BoundedTreedepth(5+trial%6, 2, 0.6, int64(800+trial))
			forest := treedepth.DFSForest(g)
			genRun, err := seq.New(g, forest, engine)
			if err != nil {
				return nil, err
			}
			genAns, err := genRun.Decide()
			if err != nil {
				return nil, err
			}
			if genRun.MaxClassKeyBytes() > maxGeneric {
				maxGeneric = genRun.MaxClassKeyBytes()
			}
			compRun, err := seq.New(g, forest, tc.compiled)
			if err != nil {
				return nil, err
			}
			compAns, err := compRun.Decide()
			if err != nil {
				return nil, err
			}
			if compRun.MaxClassKeyBytes() > maxCompiled {
				maxCompiled = compRun.MaxClassKeyBytes()
			}
			oracleAns, err := mso.NewEvaluator(g).Eval(tc.formula, nil)
			if err != nil {
				return nil, err
			}
			if genAns == compAns && compAns == oracleAns {
				agree++
			}
		}
		t.AddRow(tc.name, trials, fmt.Sprintf("%d/%d", agree, trials), maxGeneric, maxCompiled)
	}
	t.Notes = append(t.Notes,
		"class bytes = the largest homomorphism-class wire encoding (log|C| up to constants):",
		"the generic engine's reduced pattern trees are much wider than hand-compiled classes,",
		"the price of full MSO generality")
	return t, nil
}

// tfree builds the triangle-freeness predicate as the negation of
// K3-subgraph containment.
func tfree() regular.Predicate {
	p, err := predicates.NewHSubgraph(gen.Complete(3))
	if err != nil {
		panic(err)
	}
	return predicates.Negate(p)
}
