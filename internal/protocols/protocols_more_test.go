package protocols_test

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/mso/msolib"
	"repro/internal/msoauto"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
	"repro/internal/seq"
	"repro/internal/treedepth"
)

func TestDistributedSteinerTree(t *testing.T) {
	r := rand.New(rand.NewSource(901))
	for trial := 0; trial < 6; trial++ {
		n := 5 + r.Intn(8)
		g, _ := gen.BoundedTreedepth(n, 2, 0.5, r.Int63())
		gen.AssignRandomWeights(g, 10, r.Int63())
		g.SetVertexLabel(predicates.TerminalLabel, 0)
		g.SetVertexLabel(predicates.TerminalLabel, n-1)
		dist, err := protocols.Run(g, protocols.Config{Pred: predicates.SteinerTree{}, Mode: protocols.ModeOptimize, D: 2}, opts(r.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		run, err := seq.New(g, treedepth.DFSForest(g), predicates.SteinerTree{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := run.Optimize(false)
		if err != nil {
			t.Fatal(err)
		}
		if dist.TdExceeded || dist.Found != want.Found || dist.Weight != want.Weight {
			t.Fatalf("trial %d: dist=(%v,%d) seq=(%v,%d)",
				trial, dist.Found, dist.Weight, want.Found, want.Weight)
		}
	}
}

func TestDistributedHamiltonian(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"C6", gen.Cycle(6), true},
		{"P6", gen.Path(6), false},
		{"K4", gen.Complete(4), true},
		{"star", gen.Star(6), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := protocols.Run(tc.g, protocols.Config{Pred: predicates.HamiltonianCycle{}, Mode: protocols.ModeDecide, D: 4}, opts(3))
			if err != nil {
				t.Fatal(err)
			}
			if res.TdExceeded {
				t.Fatal("unexpected treedepth report")
			}
			if res.Accepted != tc.want {
				t.Fatalf("hamiltonian = %v, want %v", res.Accepted, tc.want)
			}
		})
	}
}

func TestDistributedGenericEngine(t *testing.T) {
	// The generic MSO compiler runs unchanged through the CONGEST protocol:
	// its pattern-tree classes are streamed like any other class.
	engine, err := msoauto.New(msolib.TriangleFree(), msoauto.Options{})
	if err != nil {
		t.Fatal(err)
	}
	free, _ := gen.BoundedTreedepth(12, 2, 0.2, 55)
	res, err := protocols.Run(free, protocols.Config{Pred: engine, Mode: protocols.ModeDecide, D: 2}, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.TdExceeded {
		t.Fatal("unexpected treedepth report")
	}
	want := true
	for a := 0; a < 12 && want; a++ {
		for b := a + 1; b < 12 && want; b++ {
			for c := b + 1; c < 12; c++ {
				if free.HasEdge(a, b) && free.HasEdge(b, c) && free.HasEdge(a, c) {
					want = false
					break
				}
			}
		}
	}
	if res.Accepted != want {
		t.Fatalf("triangle-free = %v, want %v", res.Accepted, want)
	}
}

func TestBaselineMatchesProtocol(t *testing.T) {
	r := rand.New(rand.NewSource(902))
	for trial := 0; trial < 6; trial++ {
		n := 5 + r.Intn(20)
		g, _ := gen.BoundedTreedepth(n, 3, 0.4, r.Int63())
		proto, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 3}, opts(r.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		base, err := protocols.BaselineDecide(g, protocols.AcyclicSolver, opts(r.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		if proto.TdExceeded || proto.Accepted != base.Accepted {
			t.Fatalf("trial %d: protocol=%v baseline=%v", trial, proto.Accepted, base.Accepted)
		}
	}
}

func TestBaselineHighDiameter(t *testing.T) {
	// The baseline's rounds must grow with the diameter; the protocol's must
	// not (beyond its d-dependence).
	small := gen.Caterpillar(8, 1)
	large := gen.Caterpillar(64, 1)
	baseSmall, err := protocols.BaselineDecide(small, protocols.AcyclicSolver, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseLarge, err := protocols.BaselineDecide(large, protocols.AcyclicSolver, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if baseLarge.Stats.Rounds <= baseSmall.Stats.Rounds {
		t.Fatalf("baseline rounds should grow with diameter: %d vs %d",
			baseSmall.Stats.Rounds, baseLarge.Stats.Rounds)
	}
	if !baseSmall.Accepted || !baseLarge.Accepted {
		t.Fatal("caterpillars are acyclic")
	}
}

func TestBandwidthFactorIndependence(t *testing.T) {
	// Results must be identical across bandwidth factors; only round counts
	// change.
	g, _ := gen.BoundedTreedepth(20, 3, 0.4, 66)
	gen.AssignRandomWeights(g, 10, 67)
	var weights []int64
	var rounds []int
	for _, factor := range []int{0, 8, 64} {
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeOptimize, D: 3, Maximize: true},
			congest.Options{BandwidthFactor: factor})
		if err != nil {
			t.Fatal(err)
		}
		if res.TdExceeded {
			t.Fatal("unexpected treedepth report")
		}
		weights = append(weights, res.Weight)
		rounds = append(rounds, res.Stats.Rounds)
	}
	if weights[0] != weights[1] || weights[1] != weights[2] {
		t.Fatalf("weights differ across bandwidths: %v", weights)
	}
	if rounds[2] >= rounds[1] {
		t.Fatalf("wider bandwidth should need fewer rounds: %v", rounds)
	}
}

func TestDistributedRedBlueDomination(t *testing.T) {
	r := rand.New(rand.NewSource(903))
	p := predicates.DominatingSet{DominateLabel: "red", MemberLabel: "blue"}
	for trial := 0; trial < 5; trial++ {
		n := 5 + r.Intn(8)
		g, _ := gen.BoundedTreedepth(n, 2, 0.5, r.Int63())
		gen.AssignRandomWeights(g, 5, r.Int63())
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				g.SetVertexLabel("red", v)
			} else {
				g.SetVertexLabel("blue", v)
			}
		}
		dist, err := protocols.Run(g, protocols.Config{Pred: p, Mode: protocols.ModeOptimize, D: 2}, opts(r.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		run, err := seq.New(g, treedepth.DFSForest(g), p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run.Optimize(false)
		if err != nil {
			t.Fatal(err)
		}
		if dist.Found != want.Found || (want.Found && dist.Weight != want.Weight) {
			t.Fatalf("trial %d: dist=(%v,%d) seq=(%v,%d)",
				trial, dist.Found, dist.Weight, want.Found, want.Weight)
		}
	}
}

func TestDistributedInfeasibleOptimization(t *testing.T) {
	// Red vertex with no blue neighbor: red/blue domination infeasible.
	g := gen.Path(3)
	g.SetVertexLabel("red", 0)
	g.SetVertexLabel("red", 1)
	g.SetVertexLabel("red", 2)
	p := predicates.DominatingSet{DominateLabel: "red", MemberLabel: "blue"}
	res, err := protocols.Run(g, protocols.Config{Pred: p, Mode: protocols.ModeOptimize, D: 2}, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TdExceeded || res.Found {
		t.Fatalf("expected infeasible, got %+v", res)
	}
}

func TestMinimalBandwidth(t *testing.T) {
	// Factor 1 gives the floor budget of 8 bits; the protocol must still be
	// correct, just slower.
	g, _ := gen.BoundedTreedepth(12, 2, 0.4, 70)
	res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 2}, congest.Options{BandwidthFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 2}, congest.Options{BandwidthFactor: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.TdExceeded || res.Accepted != wide.Accepted {
		t.Fatalf("narrow=%v wide=%v", res.Accepted, wide.Accepted)
	}
	if res.Stats.Rounds <= wide.Stats.Rounds {
		t.Fatal("narrow bandwidth should need more rounds")
	}
}

func TestFaultInjectionNoPanics(t *testing.T) {
	// Corrupted messages must never crash a run: the protocol either
	// completes (possibly reporting failure) or the simulator surfaces an
	// error. Wrong silent answers are acceptable here — CONGEST links are
	// reliable by definition; this only tests robustness of the decoders.
	r := rand.New(rand.NewSource(905))
	for trial := 0; trial < 20; trial++ {
		g, _ := gen.BoundedTreedepth(10+r.Intn(10), 2, 0.4, r.Int63())
		opts := congest.Options{
			IDSeed:      r.Int63(),
			CorruptProb: 0.02,
			CorruptSeed: r.Int63(),
			RoundLimit:  1 << 16,
		}
		_, _ = protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 2}, opts)
		_, _ = protocols.Run(g, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeOptimize, D: 2, Maximize: true}, opts)
		_, _ = protocols.Run(g, protocols.Config{Pred: predicates.Triangles{}, Mode: protocols.ModeCount, D: 2}, opts)
	}
}

func TestParallelExecutionDeterministic(t *testing.T) {
	// The parallel simulator mode must be observationally identical to the
	// sequential one: same rounds, same verdicts, same selections.
	g, _ := gen.BoundedTreedepth(30, 3, 0.4, 77)
	gen.AssignRandomWeights(g, 10, 78)
	serial, err := protocols.Run(g, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeOptimize, D: 3, Maximize: true},
		congest.Options{IDSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := protocols.Run(g, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeOptimize, D: 3, Maximize: true},
		congest.Options{IDSeed: 5, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Weight != parallel.Weight || serial.Stats.Rounds != parallel.Stats.Rounds {
		t.Fatalf("serial (%d, %d rounds) != parallel (%d, %d rounds)",
			serial.Weight, serial.Stats.Rounds, parallel.Weight, parallel.Stats.Rounds)
	}
	if !serial.Selected.Equal(parallel.Selected) {
		t.Fatal("selected sets differ between execution modes")
	}
	if serial.Stats.Messages != parallel.Stats.Messages || serial.Stats.Bits != parallel.Stats.Bits {
		t.Fatal("message accounting differs between execution modes")
	}
}
