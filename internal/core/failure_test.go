package core

import (
	"errors"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/msoauto"
	"repro/internal/regular"
)

// hubC4Graph is a hub vertex 0 with a pendant vertex 1 and k copies of C4,
// each joined to the hub by one edge: td = 4, and exactly 2^k perfect
// matchings (the pendant takes the hub, each C4 matches itself two ways).
func hubC4Graph(k int) *graph.Graph {
	g := graph.New(2 + 4*k)
	mustEdge := func(u, v int) {
		if _, err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	mustEdge(0, 1)
	for i := 0; i < k; i++ {
		a := 2 + 4*i
		mustEdge(a, a+1)
		mustEdge(a+1, a+2)
		mustEdge(a+2, a+3)
		mustEdge(a+3, a)
		mustEdge(0, a)
	}
	return g
}

// solveBoth solves r distributed and sequentially.
func solveBoth(t *testing.T, r Request) (dist, sq *Solution, distErr, seqErr error) {
	t.Helper()
	dist, distErr = Solve(r)
	r.Sequential = true
	sq, seqErr = Solve(r)
	return dist, sq, distErr, seqErr
}

// TestPredicateErrorsAreNotLargeTreedepth pins the two ways a predicate
// error used to come back from the protocol as a false "td(G) > d" verdict.
// Both graphs have treedepth within the bound, so the protocol must return
// the sequential path's error instead.
func TestPredicateErrorsAreNotLargeTreedepth(t *testing.T) {
	t.Run("count-overflow", func(t *testing.T) {
		prob, err := Lookup("count-perfect-matchings")
		if err != nil {
			t.Fatal(err)
		}
		// k = 62 still counts: 2^62 fits an int64.
		sol, err := Solve(Request{Graph: hubC4Graph(62), Problem: prob, D: 4})
		if err != nil || sol.TdExceeded || sol.Count != 1<<62 {
			t.Fatalf("k=62: sol=%+v err=%v, want count 2^62", sol, err)
		}
		dist, _, distErr, seqErr := solveBoth(t, Request{Graph: hubC4Graph(63), Problem: prob, D: 4})
		if !errors.Is(seqErr, regular.ErrOverflow) {
			t.Fatalf("k=63 sequential: err = %v, want regular.ErrOverflow", seqErr)
		}
		if !errors.Is(distErr, regular.ErrOverflow) {
			t.Fatalf("k=63 distributed: sol=%+v err=%v, want regular.ErrOverflow", dist, distErr)
		}
	})
	t.Run("engine-limit", func(t *testing.T) {
		g, _ := gen.BoundedTreedepth(200, 3, 0.3, 5)
		prob, err := ProblemFor("", "~ exists x:V,y:V,z:V . adj(x,y) & adj(y,z) & adj(z,x)")
		if err != nil {
			t.Fatal(err)
		}
		dist, _, distErr, seqErr := solveBoth(t, Request{Graph: g, Problem: prob, D: 3})
		if !errors.Is(seqErr, msoauto.ErrLimit) {
			t.Fatalf("sequential: err = %v, want msoauto.ErrLimit", seqErr)
		}
		if !errors.Is(distErr, msoauto.ErrLimit) {
			t.Fatalf("distributed: sol=%+v err=%v, want msoauto.ErrLimit", dist, distErr)
		}
	})
	t.Run("large-treedepth-still-reported", func(t *testing.T) {
		prob, err := Lookup("acyclic")
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveDistributed(gen.Path(40), prob, 2, congest.Options{})
		if err != nil || !sol.TdExceeded {
			t.Fatalf("P40 at d=2: sol=%+v err=%v, want TdExceeded", sol, err)
		}
	})
}
