package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular"
	"repro/internal/regular/predicates"
	"repro/internal/treedepth"
)

// TestRequestCombinations walks mode × shared cache × fault schedule ×
// witness forest × execution. Every valid combination must agree with the
// sequential oracle, the cache and worker-pool variants of a distributed
// run must report identical Stats, and every invalid combination must be
// rejected by Validate (and by Solve, before any run) with a FieldError
// naming one of its offending fields.
func TestRequestCombinations(t *testing.T) {
	g, parent := gen.BoundedTreedepth(10, 3, 0.5, 5)
	gen.AssignRandomWeights(g, 9, 6)
	witness := treedepth.NewForest(parent)
	schedules := []struct {
		name string
		cfg  faults.Config
	}{
		{"none", faults.Config{}},
		{"quiet", faults.Config{Seed: 3, ReorderRate: 0.5, MinOutage: 1, MaxOutage: 4}},
		{"live", faults.Config{Seed: 3, DropRate: 0.1, DupRate: 0.05, MinOutage: 1, MaxOutage: 4}},
	}
	execs := []struct {
		name string
		opts congest.Options
	}{
		{"serial", congest.Options{}},
		{"parallel", congest.Options{Parallel: true}},
		{"workers", congest.Options{Parallel: true, Workers: 2}},
	}
	for _, name := range []string{"3-colorable", "max-independent-set", "count-perfect-matchings"} {
		prob, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := SolveSequential(g, prob)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := prob.Build()
		if err != nil {
			t.Fatal(err)
		}
		shared := regular.NewShared(pred)
		// Distributed Stats per fault class: a quiet schedule is fault-free.
		stats := map[bool]*Solution{}
		for _, seqMode := range []bool{true, false} {
			for _, cached := range []bool{false, true} {
				for _, sched := range schedules {
					for _, forest := range []*treedepth.Forest{nil, witness} {
						for _, ex := range execs {
							req := Request{Graph: g, Problem: prob, Sequential: seqMode, D: 3, Forest: forest, Options: ex.opts, Faults: sched.cfg}
							if cached {
								req.Cache = shared
							}
							label := fmt.Sprintf("%s/seq=%v/cache=%v/faults=%s/witness=%v/%s",
								name, seqMode, cached, sched.name, forest != nil, ex.name)
							var bad []string
							if seqMode && ex.opts.Parallel {
								bad = append(bad, "parallel")
							}
							if seqMode && sched.name != "none" {
								bad = append(bad, "faults")
							}
							if !seqMode && forest != nil {
								bad = append(bad, "forest")
							}
							if len(bad) > 0 {
								checkRejected(t, label, req, bad)
								continue
							}
							sol, err := Solve(req)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if sol.Accepted != oracle.Accepted || sol.Found != oracle.Found ||
								sol.Weight != oracle.Weight || sol.Count != oracle.Count || sol.TdExceeded {
								t.Fatalf("%s: got %+v, oracle %+v", label, sol, oracle)
							}
							if seqMode {
								continue
							}
							live := sched.name == "live"
							if live != (sol.Reliability.VirtualRounds > 0) {
								t.Fatalf("%s: reliable adapter ran = %v, want %v", label, sol.Reliability.VirtualRounds > 0, live)
							}
							if want, ok := stats[live]; !ok {
								stats[live] = sol
							} else if sol.Stats != want.Stats || sol.Reliability != want.Reliability {
								t.Fatalf("%s: stats diverged:\n  got  %+v %+v\n  want %+v %+v",
									label, sol.Stats, sol.Reliability, want.Stats, want.Reliability)
							}
						}
					}
				}
			}
		}
	}
}

// checkRejected asserts that Validate and Solve both reject req with a
// FieldError whose first field is one of bad.
func checkRejected(t *testing.T, label string, req Request, bad []string) {
	t.Helper()
	verr := req.Validate()
	var fe *FieldError
	if !errors.As(verr, &fe) {
		t.Fatalf("%s: Validate = %v, want a FieldError on %v", label, verr, bad)
	}
	found := false
	for _, f := range bad {
		found = found || fe.Fields[0] == f
	}
	if !found {
		t.Fatalf("%s: rejected field %v, want one of %v", label, fe.Fields, bad)
	}
	if _, err := Solve(req); err == nil || err.Error() != verr.Error() {
		t.Fatalf("%s: Solve = %v, want the validation error %v", label, err, verr)
	}
}

// TestValidateRules covers the rules the combination table does not reach.
func TestValidateRules(t *testing.T) {
	prob, err := Lookup("acyclic")
	if err != nil {
		t.Fatal(err)
	}
	live := faults.Config{DropRate: 0.1}
	marked := Problem{Name: "marked-is", Kind: KindCheckMarked, Maximize: true,
		Build: func() (regular.Predicate, error) { return predicates.IndependentSet{}, nil }}
	cases := []struct {
		name  string
		req   Request
		field string // "" = valid
	}{
		{"no-problem", Request{D: 3}, "problem"},
		{"negative-workers", Request{Problem: prob, D: 3, Options: congest.Options{Workers: -1}}, "workers"},
		{"dist-d-zero", Request{Problem: prob}, "d"},
		{"seq-d-zero", Request{Problem: prob, Sequential: true}, ""},
		{"seq-d-negative", Request{Problem: prob, Sequential: true, D: -1}, "d"},
		{"seq-workers-alone", Request{Problem: prob, Sequential: true, Options: congest.Options{Workers: 2}}, "parallel"},
		{"seq-seed", Request{Problem: prob, Sequential: true, Options: congest.Options{IDSeed: 4}}, "seed"},
		{"seq-trace", Request{Problem: prob, Sequential: true, Options: congest.Options{Tracer: congest.NewNDJSONTracer(nil)}}, "trace"},
		{"seq-reliable", Request{Problem: prob, Sequential: true, Reliable: &protocols.ReliableConfig{}}, "faults"},
		{"seq-injector", Request{Problem: prob, Sequential: true, Options: congest.Options{Injector: faults.New(live)}}, "faults"},
		{"dist-live-and-injector", Request{Problem: prob, D: 3, Faults: live, Options: congest.Options{Injector: faults.New(live)}}, "faults"},
		{"dist-injector-alone", Request{Problem: prob, D: 3, Options: congest.Options{Injector: faults.New(live)}, Reliable: &protocols.ReliableConfig{}}, ""},
		{"dist-workers-without-parallel", Request{Problem: prob, D: 3, Options: congest.Options{Workers: 2}}, ""},
		{"seq-optmarked", Request{Problem: marked, Sequential: true}, "problem"},
		{"dist-optmarked", Request{Problem: marked, D: 3}, ""},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		var fe *FieldError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: unexpected rejection: %v", tc.name, err)
		case tc.field != "" && !errors.As(err, &fe):
			t.Errorf("%s: Validate = %v, want a FieldError on %q", tc.name, err, tc.field)
		case tc.field != "" && fe.Fields[0] != tc.field:
			t.Errorf("%s: rejected field %v, want %q", tc.name, fe.Fields, tc.field)
		}
	}
	if err := (Request{Problem: Problem{Name: "odd", Kind: 99, Build: prob.Build}, D: 3}).Validate(); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
}

// TestCacheMismatchRejected: a shared cache wrapping another predicate must
// be rejected in both modes, not silently solve the cache's predicate.
func TestCacheMismatchRejected(t *testing.T) {
	g := gen.Cycle(5)
	prob, err := Lookup("acyclic")
	if err != nil {
		t.Fatal(err)
	}
	other, err := Lookup("3-colorable")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := other.Build()
	if err != nil {
		t.Fatal(err)
	}
	shared := regular.NewShared(pred)
	for _, seqMode := range []bool{true, false} {
		req := Request{Graph: g, Problem: prob, Sequential: seqMode, D: 3, Cache: shared}
		sol, err := Solve(req)
		var fe *FieldError
		if !errors.As(err, &fe) || !reflect.DeepEqual(fe.Fields, []string{"cache"}) {
			t.Fatalf("seq=%v: Solve = (%+v, %v), want a FieldError on the cache", seqMode, sol, err)
		}
	}
}

// TestFieldErrorSpelling: front-ends respell field names in their own syntax.
func TestFieldErrorSpelling(t *testing.T) {
	prob, err := Lookup("acyclic")
	if err != nil {
		t.Fatal(err)
	}
	err = Request{Problem: prob, Sequential: true, Options: congest.Options{Parallel: true}}.Validate()
	var fe *FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("Validate = %v", err)
	}
	if got, want := fe.Spell(func(f string) string { return "-" + f }), "-parallel/-workers apply to the CONGEST run, not the sequential one"; got != want {
		t.Fatalf("flag spelling = %q, want %q", got, want)
	}
	_, err = ProblemFor("acyclic", "true")
	if !errors.As(err, &fe) {
		t.Fatalf("ProblemFor = %v", err)
	}
	if got, want := fe.Spell(func(f string) string { return `"` + f + `"` }), `use either "problem" or "formula", not both`; got != want {
		t.Fatalf("JSON spelling = %q, want %q", got, want)
	}
}
