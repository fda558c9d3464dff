package protocols_test

import (
	"testing"

	"repro/internal/congest"
	graphpkg "repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
)

// TestDifferentialParallelMatchesSequential runs the full distributed
// pipeline over the differential-suite graphs with Parallel: true under an
// adversarial ID permutation and nonzero fault injection, and demands the
// outcome — verdict, treedepth report, and every stats counter — be
// bit-identical to the sequential run. Run under -race this also shakes the
// worker pool for data races on the shared engine state.
func TestDifferentialParallelMatchesSequential(t *testing.T) {
	type outcome struct {
		stats      congest.Stats
		tdExceeded bool
		accepted   bool
		err        string
	}
	run := func(g *graphpkg.Graph, d int, opts congest.Options) outcome {
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: d}, opts)
		var o outcome
		if res != nil {
			o = outcome{stats: res.Stats, tdExceeded: res.TdExceeded, accepted: res.Accepted}
		}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	for i, tc := range differentialGraphs(t) {
		if i%10 != 1 {
			continue // the full population runs in the decide differential; a sample suffices here
		}
		for _, opts := range []congest.Options{
			{IDSeed: int64(0xBEEF + i)},
			{IDSeed: int64(0xBEEF + i), CorruptProb: 0.01, CorruptSeed: int64(41 + i), RoundLimit: 1 << 9},
		} {
			seqOpts, parOpts := opts, opts
			parOpts.Parallel = true
			parOpts.Workers = 3
			want := run(tc.g, tc.d, seqOpts)
			got := run(tc.g, tc.d, parOpts)
			if got != want {
				t.Errorf("%s corrupt=%v: parallel diverged from sequential:\n  par: %+v\n  seq: %+v",
					tc.name, opts.CorruptProb > 0, got, want)
			}
			// A second worker count must not change anything either.
			parOpts.Workers = 8
			if got8 := run(tc.g, tc.d, parOpts); got8 != want {
				t.Errorf("%s corrupt=%v workers=8: parallel diverged from sequential", tc.name, opts.CorruptProb > 0)
			}
		}
	}
}
