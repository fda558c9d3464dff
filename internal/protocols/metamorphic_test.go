package protocols_test

import (
	"errors"
	"testing"

	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
	"repro/internal/seq"
	"repro/internal/treedepth"
)

// Metamorphic property of the reliable adapter: injected faults may slow a
// run down or kill it loudly, but they can never change its answer. Every
// run that completes without ErrUnrecoverable must report the sequential
// oracle's verdict, and fault classes the ARQ layer absorbs outright
// (duplication, reordering — nothing is ever lost) must always complete.
func TestMetamorphicFaultGrid(t *testing.T) {
	type schedule struct {
		name string
		cfg  faults.Config
		// mustComplete: this fault class cannot exhaust a retry budget, so
		// ErrUnrecoverable would itself be a bug.
		mustComplete bool
	}
	schedules := []schedule{
		{"dup-only", faults.Config{DupRate: 0.4, ReorderWindow: 4}, true},
		{"reorder-only", faults.Config{ReorderRate: 0.4, ReorderWindow: 4}, true},
		{"drop", faults.Config{DropRate: 0.15}, false},
		{"mixed", faults.Config{DropRate: 0.15, DupRate: 0.1, ReorderRate: 0.1, ReorderWindow: 3}, false},
		{"crashy", faults.Config{CrashRate: 0.001, MinOutage: 1, MaxOutage: 4, DropRate: 0.05}, false},
	}
	pred := predicates.Acyclicity{}
	completed, failed := 0, 0
	for i, tc := range differentialGraphs(t) {
		if testing.Short() && i%5 != 0 {
			continue
		}
		oracle, err := seq.New(tc.g, treedepth.DFSForest(tc.g), pred)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		want, err := oracle.Decide()
		if err != nil {
			t.Fatalf("%s: oracle decide: %v", tc.name, err)
		}
		for _, sc := range schedules {
			cfg := sc.cfg
			cfg.Seed = int64(100*i + 7) // independent chaos per graph
			opts := reliableOptions(tc.g.NumVertices())
			opts.Injector = faults.New(cfg)
			res, err := protocols.Run(tc.g, protocols.Config{
				Pred: pred, Mode: protocols.ModeDecide, D: tc.d, Reliable: true,
			}, opts)
			switch {
			case err == nil:
				completed++
				if res.TdExceeded {
					t.Errorf("%s/%s: spurious treedepth report under faults", tc.name, sc.name)
					continue
				}
				if res.Accepted != want {
					t.Errorf("%s/%s: WRONG VERDICT under faults: distributed=%v oracle=%v (schedule %v)",
						tc.name, sc.name, res.Accepted, want, cfg)
				}
			case errors.Is(err, protocols.ErrUnrecoverable):
				failed++
				if sc.mustComplete {
					t.Errorf("%s/%s: loss-free fault class reported unrecoverable: %v", tc.name, sc.name, err)
				}
			default:
				t.Errorf("%s/%s: unexpected error: %v", tc.name, sc.name, err)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no run in the grid completed; the grid tests nothing")
	}
	t.Logf("metamorphic grid: %d completed (all agreed with the oracle), %d unrecoverable", completed, failed)
}

// TestMetamorphicSeedInvariance: the verdict is invariant across fault
// seeds — ten different chaos streams over the same lossy schedule must all
// either fail loudly or agree with each other and the fault-free run.
func TestMetamorphicSeedInvariance(t *testing.T) {
	cases := differentialGraphs(t)
	tc := cases[3]
	pred := predicates.Connectivity{}
	base, err := protocols.Run(tc.g, protocols.Config{Pred: pred, Mode: protocols.ModeDecide, D: tc.d}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		opts := reliableOptions(tc.g.NumVertices())
		opts.Injector = faults.New(faults.Config{
			Seed: seed, DropRate: 0.2, DupRate: 0.1, ReorderRate: 0.1, ReorderWindow: 4,
		})
		res, err := protocols.Run(tc.g, protocols.Config{
			Pred: pred, Mode: protocols.ModeDecide, D: tc.d, Reliable: true,
		}, opts)
		if errors.Is(err, protocols.ErrUnrecoverable) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.TdExceeded || res.Accepted != base.Accepted {
			t.Errorf("seed %d: verdict (td=%v acc=%v) != fault-free (acc=%v)",
				seed, res.TdExceeded, res.Accepted, base.Accepted)
		}
	}
}
