package dmc_test

import (
	"fmt"
	"reflect"
	"testing"

	dmc "repro"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph/gen"
	"repro/internal/mso"
	"repro/internal/mso/msolib"
	"repro/internal/protocols"
)

func TestCheckFormulaQuick(t *testing.T) {
	g := gen.Cycle(5)
	res, err := dmc.CheckFormula(g,
		"~ exists x:V, y:V, z:V . adj(x,y) & adj(y,z) & adj(z,x)",
		dmc.Options{D: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TdExceeded || !res.Accepted {
		t.Fatalf("C5 should be triangle-free: %+v", res)
	}
	res, err = dmc.CheckFormula(gen.Complete(4),
		"~ exists x:V, y:V, z:V . adj(x,y) & adj(y,z) & adj(z,x)",
		dmc.Options{D: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("K4 contains a triangle")
	}
}

func TestFacadeDecisionPredicates(t *testing.T) {
	g, _ := gen.BoundedTreedepth(20, 3, 0.4, 42)
	for _, tc := range []struct {
		name string
		pred dmc.Predicate
	}{
		{"acyclic", dmc.Acyclic()},
		{"connected", dmc.Connected()},
		{"3-colorable", dmc.KColorable(3)},
	} {
		res, err := dmc.Check(g, tc.pred, dmc.Options{D: 3, IDSeed: 7})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.TdExceeded {
			t.Fatalf("%s: unexpected treedepth report", tc.name)
		}
		if res.Stats.Rounds == 0 {
			t.Fatalf("%s: no rounds recorded", tc.name)
		}
	}
}

func TestFacadeOptimize(t *testing.T) {
	g := gen.Path(6)
	for v := 0; v < 6; v++ {
		g.SetVertexWeight(v, 1)
	}
	res, err := dmc.Optimize(g, dmc.IndependentSet(), dmc.Options{D: 3, Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Weight != 3 || res.Selected.Count() != 3 {
		t.Fatalf("MaxIS(P6) = %+v, want weight 3", res)
	}
}

func TestFacadeCount(t *testing.T) {
	res, err := dmc.Count(gen.Complete(4), dmc.Triangles(), dmc.Options{D: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4 {
		t.Fatalf("triangles(K4) = %d, want 4", res.Count)
	}
}

func TestFacadeCheckMarked(t *testing.T) {
	g := gen.Path(4)
	for v := 0; v < 4; v++ {
		g.SetVertexWeight(v, 1)
	}
	g.SetVertexLabel(dmc.MarkLabel, 0)
	g.SetVertexLabel(dmc.MarkLabel, 2)
	res, err := dmc.CheckMarked(g, dmc.IndependentSet(), dmc.Options{D: 3, Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("{0,2} is a maximum independent set of P4")
	}
}

func TestFacadeHFree(t *testing.T) {
	g := gen.Grid(4, 4)
	res, err := dmc.HFree(g, gen.Complete(3), 8, dmc.Options{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HFree {
		t.Fatal("grids are triangle-free")
	}
}

func TestFacadeCompileFormula(t *testing.T) {
	pred, err := dmc.CompileFormula(msolib.IndependentSet(), msolib.FreeSet, mso.KindVertexSet)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Path(4)
	for v := 0; v < 4; v++ {
		g.SetVertexWeight(v, 1)
	}
	res, err := dmc.Optimize(g, pred, dmc.Options{D: 3, Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Weight != 2 {
		t.Fatalf("compiled MaxIS(P4) = %+v, want 2", res)
	}
}

func TestFacadeTdExceeded(t *testing.T) {
	res, err := dmc.Check(gen.Path(50), dmc.Acyclic(), dmc.Options{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TdExceeded {
		t.Fatal("P50 has treedepth > 2")
	}
}

// TestOptionsValidate: the facade's Options are validated by core.Solve, so
// every entry point rejects D < 1 instead of running.
func TestOptionsValidate(t *testing.T) {
	g := gen.Path(4)
	calls := map[string]func(dmc.Options) (*dmc.Result, error){
		"Check":       func(o dmc.Options) (*dmc.Result, error) { return dmc.Check(g, dmc.Acyclic(), o) },
		"Optimize":    func(o dmc.Options) (*dmc.Result, error) { return dmc.Optimize(g, dmc.IndependentSet(), o) },
		"Count":       func(o dmc.Options) (*dmc.Result, error) { return dmc.Count(g, dmc.Triangles(), o) },
		"CheckMarked": func(o dmc.Options) (*dmc.Result, error) { return dmc.CheckMarked(g, dmc.IndependentSet(), o) },
		"CheckFormula": func(o dmc.Options) (*dmc.Result, error) {
			return dmc.CheckFormula(g, "exists x:V . x = x", o)
		},
	}
	for name, call := range calls {
		if res, err := call(dmc.Options{}); err == nil {
			t.Errorf("%s with D = 0: got %+v, want an error", name, res)
		}
		if _, err := call(dmc.Options{D: 2}); err != nil {
			t.Errorf("%s with D = 2: %v", name, err)
		}
	}
}

// TestFacadeMatchesProtocolRun: each facade entry point returns the answer
// and CONGEST cost of protocols.Run with the same Config.
func TestFacadeMatchesProtocolRun(t *testing.T) {
	const triangleFree = "~ exists x:V, y:V, z:V . adj(x,y) & adj(y,z) & adj(z,x)"
	formula, err := core.CompileClosedFormula(triangleFree)
	if err != nil {
		t.Fatal(err)
	}
	for gi, seed := range []int64{42, 5} {
		g, _ := gen.BoundedTreedepth(18, 3, 0.4, seed)
		gen.AssignRandomWeights(g, 9, seed+1)
		marked := g.Clone()
		for v := 0; v < g.NumVertices(); v += 3 {
			marked.SetVertexLabel(dmc.MarkLabel, v)
		}
		opts := dmc.Options{D: 3, IDSeed: 7}
		maxOpts := opts
		maxOpts.Maximize = true
		cases := []struct {
			name   string
			facade func() (*dmc.Result, error)
			g      *dmc.Graph
			cfg    protocols.Config
		}{
			{"check", func() (*dmc.Result, error) { return dmc.Check(g, dmc.Connected(), opts) },
				g, protocols.Config{Pred: dmc.Connected(), Mode: protocols.ModeDecide}},
			{"optimize-vertices", func() (*dmc.Result, error) { return dmc.Optimize(g, dmc.IndependentSet(), maxOpts) },
				g, protocols.Config{Pred: dmc.IndependentSet(), Mode: protocols.ModeOptimize, Maximize: true}},
			{"optimize-edges", func() (*dmc.Result, error) { return dmc.Optimize(g, dmc.SpanningTree(), opts) },
				g, protocols.Config{Pred: dmc.SpanningTree(), Mode: protocols.ModeOptimize}},
			{"count", func() (*dmc.Result, error) { return dmc.Count(g, dmc.Triangles(), opts) },
				g, protocols.Config{Pred: dmc.Triangles(), Mode: protocols.ModeCount}},
			{"check-marked", func() (*dmc.Result, error) { return dmc.CheckMarked(marked, dmc.IndependentSet(), maxOpts) },
				marked, protocols.Config{Pred: dmc.IndependentSet(), Mode: protocols.ModeCheckMarked, Maximize: true}},
			{"check-formula", func() (*dmc.Result, error) { return dmc.CheckFormula(g, triangleFree, opts) },
				g, protocols.Config{Pred: formula, Mode: protocols.ModeDecide}},
		}
		for _, tc := range cases {
			label := fmt.Sprintf("graph %d %s", gi, tc.name)
			got, err := tc.facade()
			if err != nil {
				t.Fatalf("%s: facade: %v", label, err)
			}
			tc.cfg.D = opts.D
			want, err := protocols.Run(tc.g, tc.cfg, congest.Options{IDSeed: opts.IDSeed})
			if err != nil {
				t.Fatalf("%s: protocols.Run: %v", label, err)
			}
			wantSel := want.Selected
			if wantSel == nil {
				wantSel = want.SelectedEdges
			}
			if got.TdExceeded != want.TdExceeded || got.Accepted != want.Accepted || got.Found != want.Found ||
				got.Weight != want.Weight || got.Count != want.Count || !reflect.DeepEqual(got.Selected, wantSel) {
				t.Fatalf("%s: facade answer %+v, protocols.Run %+v", label, got, want)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s: facade stats %+v, protocols.Run %+v", label, got.Stats, want.Stats)
			}
		}
	}
}

func TestFacadeBadFormula(t *testing.T) {
	if _, err := dmc.CheckFormula(gen.Path(3), "((", dmc.Options{D: 2}); err == nil {
		t.Fatal("parse error should surface")
	}
	if _, err := dmc.CheckFormula(gen.Path(3), "adj(x,y)", dmc.Options{D: 2}); err == nil {
		t.Fatal("unbound variables should surface")
	}
}

func TestFacadeCertify(t *testing.T) {
	g := gen.RandomTree(10, 5)
	certs, err := dmc.Certify(g, 4, dmc.Acyclic())
	if err != nil {
		t.Fatal(err)
	}
	ok, rejectors := dmc.VerifyCertificates(g, 4, dmc.Acyclic(), certs)
	if !ok || len(rejectors) != 0 {
		t.Fatalf("honest certificates rejected by %v", rejectors)
	}
	// On a cyclic graph, the honest proof is rejected.
	cyc := gen.Cycle(6)
	certs, err = dmc.Certify(cyc, 4, dmc.Acyclic())
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := dmc.VerifyCertificates(cyc, 4, dmc.Acyclic(), certs); ok {
		t.Fatal("false instance accepted")
	}
}
