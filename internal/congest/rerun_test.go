package congest

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph/gen"
)

// TestScratchPoolBitIdentical: repeated runs on one Simulator must be
// bit-identical to a fresh Simulator's run, in stats and node state, in
// both execution modes. (The name dates from a buffer pool that recycled
// scratch between runs; each run now owns its buffers, and this checks
// that reuse of the Simulator itself stays exact.)
func TestScratchPoolBitIdentical(t *testing.T) {
	g := gen.Grid(5, 7)
	run := func(sim *Simulator) (Stats, []int) {
		nodes := make([]*floodMinNode, g.NumVertices())
		stats, err := sim.Run(func(v int) Node {
			nodes[v] = &floodMinNode{maxRound: 15}
			return nodes[v]
		})
		if err != nil {
			t.Fatal(err)
		}
		mins := make([]int, len(nodes))
		for v, n := range nodes {
			mins[v] = n.min
		}
		return stats, mins
	}
	newSim := func(opts Options) *Simulator {
		sim, err := NewSimulator(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	for _, parallel := range []bool{false, true} {
		opts := Options{Parallel: parallel, Workers: 3, IDSeed: 99}
		wantStats, wantMins := run(newSim(opts))
		sim := newSim(opts)
		for rep := 0; rep < 3; rep++ {
			stats, mins := run(sim)
			if stats != wantStats {
				t.Fatalf("parallel=%v rep %d: stats %+v != fresh %+v", parallel, rep, stats, wantStats)
			}
			for v := range wantMins {
				if mins[v] != wantMins[v] {
					t.Fatalf("parallel=%v rep %d: node %d state differs from a fresh run", parallel, rep, v)
				}
			}
		}
	}
}

// TestScratchPoolAfterError: a run that fails validation mid-round must not
// leak its state into the next run on the same Simulator, in both execution
// modes.
func TestScratchPoolAfterError(t *testing.T) {
	g := gen.Path(6)
	for _, parallel := range []bool{false, true} {
		sim, err := NewSimulator(g, Options{Parallel: parallel, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(func(int) Node { return badPortNode{} }); err == nil {
			t.Fatalf("parallel=%v: invalid port must error", parallel)
		}
		stats, err := sim.Run(func(int) Node { return &staggerNode{} })
		if err != nil {
			t.Fatal(err)
		}
		if stats.HaltedNodes != 6 {
			t.Fatalf("parallel=%v: stats after a failed run: %+v", parallel, stats)
		}
	}
}

// TestContextCancellation: a canceled context stops the round loop with
// ErrCanceled wrapping the context's error, in both execution modes.
func TestContextCancellation(t *testing.T) {
	g := gen.Path(8)
	for _, parallel := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already canceled: the run must stop at the first barrier
		sim, err := NewSimulator(g, Options{Parallel: parallel, Workers: 2, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run(func(int) Node { return neverHaltNode{} })
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%v: err = %v, want ErrCanceled wrapping context.Canceled", parallel, err)
		}
	}
	// A nil context (the default) must not alter behavior: the same protocol
	// runs into the round limit instead.
	sim, err := NewSimulator(g, Options{RoundLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(func(int) Node { return neverHaltNode{} }); !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}
