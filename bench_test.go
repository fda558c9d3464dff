package dmc_test

import (
	"testing"

	dmc "repro"
	"repro/internal/congest"
	"repro/internal/experiments"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
	"repro/internal/seq"
	"repro/internal/treedepth"
)

// --- One benchmark per EXPERIMENTS.md table/figure. Each iteration
// regenerates the experiment in its quick configuration; run cmd/bench for
// the full sweeps and formatted output. ---

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(true)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkT1DecisionRoundsVsN(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkT2RoundsVsDepth(b *testing.B)     { benchExperiment(b, "T2") }
func BenchmarkT3Optimization(b *testing.B)      { benchExperiment(b, "T3") }
func BenchmarkT4Counting(b *testing.B)          { benchExperiment(b, "T4") }
func BenchmarkT5OptMarked(b *testing.B)         { benchExperiment(b, "T5") }
func BenchmarkT6HFreeExpansion(b *testing.B)    { benchExperiment(b, "T6") }
func BenchmarkT7GenericVsCompiled(b *testing.B) { benchExperiment(b, "T7") }
func BenchmarkT8PhaseBreakdown(b *testing.B)    { benchExperiment(b, "T8") }
func BenchmarkF1MessageWidth(b *testing.B)      { benchExperiment(b, "F1") }
func BenchmarkF2BaselineCrossover(b *testing.B) { benchExperiment(b, "F2") }
func BenchmarkF3ElimTree(b *testing.B)          { benchExperiment(b, "F3") }
func BenchmarkS1EngineScaling(b *testing.B)     { benchExperiment(b, "S1") }
func BenchmarkS2DPAlgebra(b *testing.B)         { benchExperiment(b, "S2") }

// --- Micro-benchmarks: the building blocks. ---

func BenchmarkSequentialDecideAcyclic(b *testing.B) {
	g, _ := gen.BoundedTreedepth(256, 3, 0.2, 1)
	forest := treedepth.DFSForest(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := seq.New(g, forest, predicates.Acyclicity{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.Decide(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialOptimizeMaxIS(b *testing.B) {
	g, _ := gen.BoundedTreedepth(128, 3, 0.2, 2)
	gen.AssignRandomWeights(g, 10, 3)
	forest := treedepth.DFSForest(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := seq.New(g, forest, predicates.IndependentSet{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.Optimize(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedDecideAcyclic(b *testing.B) {
	g, _ := gen.BoundedTreedepth(256, 3, 0.2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 3}, congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.TdExceeded {
			b.Fatal("unexpected treedepth report")
		}
	}
}

// BenchmarkDistributedDecideAcyclicTraced is the traced twin of
// BenchmarkDistributedDecideAcyclic: the delta between the two is the full
// cost of metrics tracing, and BenchmarkDistributedDecideAcyclic itself
// guards the nil-tracer path against regressions.
func BenchmarkDistributedDecideAcyclicTraced(b *testing.B) {
	g, _ := gen.BoundedTreedepth(256, 3, 0.2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m congest.MetricsTracer
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 3}, congest.Options{Tracer: &m})
		if err != nil {
			b.Fatal(err)
		}
		if res.TdExceeded {
			b.Fatal("unexpected treedepth report")
		}
		if len(m.PerKind()) == 0 {
			b.Fatal("tracer captured nothing")
		}
	}
}

func BenchmarkDistributedOptimizeMST(b *testing.B) {
	g, _ := gen.BoundedTreedepth(64, 2, 0.4, 5)
	gen.AssignRandomWeights(g, 20, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.SpanningTree{}, Mode: protocols.ModeOptimize, D: 2}, congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("no spanning tree")
		}
	}
}

func BenchmarkDistributedCountTriangles(b *testing.B) {
	g, _ := gen.BoundedTreedepth(64, 3, 0.4, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := protocols.Run(g, protocols.Config{Pred: predicates.Triangles{}, Mode: protocols.ModeCount, D: 3}, congest.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineDecideAcyclic(b *testing.B) {
	g, _ := gen.BoundedTreedepth(256, 3, 0.2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := protocols.BaselineDecide(g, protocols.AcyclicSolver, congest.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenericEngineTriangleFree(b *testing.B) {
	g, _ := gen.BoundedTreedepth(32, 2, 0.5, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dmc.CheckFormula(g,
			"~ exists x:V, y:V, z:V . adj(x,y) & adj(y,z) & adj(z,x)", dmc.Options{D: 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.TdExceeded {
			b.Fatal("unexpected treedepth report")
		}
	}
}

func BenchmarkElimTreeConstruction(b *testing.B) {
	g, _ := gen.BoundedTreedepth(512, 3, 0.2, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Connectivity{}, Mode: protocols.ModeDecide, D: 3}, congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Forest.Depth() > 8 {
			b.Fatal("depth bound violated")
		}
	}
}
