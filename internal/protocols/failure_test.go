package protocols

import (
	"errors"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/regular"
	"repro/internal/regular/predicates"
)

// TestAssembleResultFailureRules pins how failure codes become results: a
// predicate error is returned as itself (the first in vertex order), any
// other failure but Algorithm 2's rejection wraps ErrProtocol, and only
// the rejection sets TdExceeded.
func TestAssembleResultFailureRules(t *testing.T) {
	g := gen.Path(3)
	ids := []int{1, 2, 3}
	cfg := Config{Pred: predicates.Acyclicity{}, Mode: ModeDecide, D: 2}
	// A valid elimination tree of P3: the middle vertex is the root.
	outputs := func(fail [3]int, errs [3]error) []Output {
		out := []Output{{ParentID: 2}, {ParentID: -1, IsRoot: true, Accepted: true}, {ParentID: 2}}
		for v := range out {
			out[v].Failure, out[v].Err = fail[v], errs[v]
		}
		return out
	}
	first := errors.New("first")
	second := errors.New("second")
	cases := []struct {
		name    string
		fail    [3]int
		errs    [3]error
		wantErr error
		wantTd  bool
	}{
		{"none", [3]int{}, [3]error{}, nil, false},
		{"td", [3]int{failTdExceeded, failTdExceeded, failTdExceeded}, [3]error{}, nil, true},
		{"predicate", [3]int{failPredicate, failPredicate, failPredicate}, [3]error{nil, first, second}, first, false},
		{"predicate-over-td", [3]int{failTdExceeded, failPredicate, failPredicate}, [3]error{nil, nil, regular.ErrOverflow}, regular.ErrOverflow, false},
		{"forest-check", [3]int{failProtocol, failProtocol, failProtocol}, [3]error{}, ErrProtocol, false},
		{"forest-check-over-td", [3]int{failTdExceeded, failProtocol, failProtocol}, [3]error{}, ErrProtocol, false},
		{"predicate-code-without-error", [3]int{failPredicate, failPredicate, failPredicate}, [3]error{}, ErrProtocol, false},
	}
	for _, tc := range cases {
		res, err := AssembleResult(g, cfg, ids, outputs(tc.fail, tc.errs))
		switch {
		case tc.wantErr == nil && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		case tc.wantErr == nil && res.TdExceeded != tc.wantTd:
			t.Errorf("%s: TdExceeded = %v, want %v", tc.name, res.TdExceeded, tc.wantTd)
		case tc.name == "none" && !res.Accepted:
			t.Errorf("%s: root verdict lost", tc.name)
		}
	}
}
