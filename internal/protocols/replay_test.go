package protocols_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
)

// TestReplayDeterminismParallel: the same fault seed must reproduce the run
// bit-for-bit — RunResult, stats, reliability counters, and the complete
// NDJSON trace of send, halt and fault events — sequentially and at every
// worker count. Fault plans are drawn and trace events buffered by the
// parallel delivery shards, so any leak of shard or worker order into them
// diverges here: at n = 130 the modes split the vertices into 4, 8 and 9
// shards. The race detector checks the shards when this runs under -race.
func TestReplayDeterminismParallel(t *testing.T) {
	g, _ := gen.BoundedTreedepth(130, 2, 0.3, 21)
	gen.AssignRandomWeights(g, 9, 22)
	cfg := protocols.Config{
		Pred: predicates.IndependentSet{}, Mode: protocols.ModeOptimize,
		Maximize: true, D: 2, Reliable: true,
	}
	run := func(parallel bool, workers int) (*protocols.RunResult, []byte) {
		t.Helper()
		var buf bytes.Buffer
		tracer := congest.NewNDJSONTracer(&buf)
		opts := reliableOptions(g.NumVertices())
		opts.IDSeed = 9
		opts.Tracer = tracer
		opts.Parallel = parallel
		opts.Workers = workers
		opts.Injector = faults.New(faults.Config{
			Seed: 2024, DropRate: 0.15, DupRate: 0.1, ReorderRate: 0.1, ReorderWindow: 4,
			CrashRate: 0.0005, MinOutage: 1, MaxOutage: 3,
		})
		res, err := protocols.Run(g, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tracer.Err(); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	a, traceA := run(false, 0)
	if a.Stats.Faults.Dropped == 0 || a.Stats.Faults.Duplicated == 0 || a.Stats.Faults.Delayed == 0 {
		t.Fatalf("schedule injected too little; replay test is vacuous: %+v", a.Stats.Faults)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b, traceB := run(true, workers)
		if a.Stats != b.Stats {
			t.Fatalf("workers=%d: stats diverged from sequential:\n%+v\n%+v", workers, a.Stats, b.Stats)
		}
		if a.Reliability != b.Reliability {
			t.Fatalf("workers=%d: reliability counters diverged:\n%+v\n%+v", workers, a.Reliability, b.Reliability)
		}
		if a.Accepted != b.Accepted || a.Found != b.Found || a.Weight != b.Weight || a.TdExceeded != b.TdExceeded {
			t.Fatalf("workers=%d: verdicts diverged:\n%+v\n%+v", workers, a, b)
		}
		if !reflect.DeepEqual(a.Outputs, b.Outputs) {
			t.Fatalf("workers=%d: per-node outputs diverged from sequential", workers)
		}
		if !bytes.Equal(traceA, traceB) {
			t.Fatalf("workers=%d: NDJSON trace diverged from sequential (%d vs %d bytes)", workers, len(traceB), len(traceA))
		}
	}
}
