package protocols_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
)

// Property: a fault schedule whose rates are all zero is not merely
// behavior-preserving but byte-invisible — installing it changes nothing
// about a run, down to the last trace byte. The two tests below check the
// property against the committed goldens and quick-check it across a few
// hundred seeds.

// TestQuietSchedulePreservesGoldenDPTrace: running the DP protocol under a
// zero-rate schedule must reproduce the committed golden trace exactly, so
// the fault seam provably costs nothing when disarmed.
func TestQuietSchedulePreservesGoldenDPTrace(t *testing.T) {
	g, _ := gen.BoundedTreedepth(18, 2, 0.3, 42)
	gen.AssignRandomWeights(g, 9, 43)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_dp_decide_connected.ndjson"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	for _, seed := range []int64{0, 1, 42, -9000} {
		var buf bytes.Buffer
		tracer := congest.NewNDJSONTracer(&buf)
		opts := congest.Options{
			IDSeed:   7,
			Tracer:   tracer,
			Injector: faults.New(faults.Config{Seed: seed, ReorderWindow: int(seed % 17)}),
		}
		if _, err := protocols.Run(g, protocols.Config{Pred: predicates.Connectivity{}, Mode: protocols.ModeDecide, D: 2}, opts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tracer.Err(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("seed %d: quiet schedule diverged from the golden DP trace (%d bytes vs %d)",
				seed, buf.Len(), len(golden))
		}
	}
}

// TestQuickCheckQuietScheduleTransparency quick-checks the transparency
// property over ~200 seeded zero-rate schedules: stats and the complete
// NDJSON stream must be byte-identical to a run with no injector installed.
func TestQuickCheckQuietScheduleTransparency(t *testing.T) {
	schedules := 200
	if testing.Short() {
		schedules = 25
	}
	g, _ := gen.BoundedTreedepth(16, 2, 0.35, 99)
	run := func(inj congest.FaultInjector) (congest.Stats, []byte) {
		t.Helper()
		var buf bytes.Buffer
		tracer := congest.NewNDJSONTracer(&buf)
		res, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 2}, congest.Options{
			IDSeed: 5, Tracer: tracer, Injector: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tracer.Err(); err != nil {
			t.Fatal(err)
		}
		return res.Stats, buf.Bytes()
	}
	baseStats, baseTrace := run(nil)
	for i := 0; i < schedules; i++ {
		// Every knob that does not enable a fault varies with i; all rates
		// stay zero. Seeds cover negatives and both PRNG stream halves.
		cfg := faults.Config{
			Seed:          int64(i*2654435761 - 1000),
			ReorderWindow: i % (faults.MaxReorderWindow + 2),
			MinOutage:     i % (faults.MaxOutage + 2),
			MaxOutage:     (i * 3) % (faults.MaxOutage + 2),
		}
		if !cfg.Quiet() {
			t.Fatalf("schedule %d is not quiet: %+v", i, cfg)
		}
		stats, trace := run(faults.New(cfg))
		if stats != baseStats {
			t.Fatalf("schedule %d (%v): stats diverged:\n%+v\nwant %+v", i, cfg, stats, baseStats)
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Fatalf("schedule %d (%v): NDJSON trace diverged from the injector-free run", i, cfg)
		}
	}
}

// TestQuietScheduleTransparentUnderReliable is the adapter half of the
// property: with the reliable adapter on, a zero-rate schedule leaves the
// adapter's wire-level byte stream identical to the adapter's own fault-free
// run (the adapter adds no randomness of its own).
func TestQuietScheduleTransparentUnderReliable(t *testing.T) {
	g, _ := gen.BoundedTreedepth(14, 2, 0.3, 77)
	cfg := protocols.Config{Pred: predicates.Connectivity{}, Mode: protocols.ModeDecide, D: 2, Reliable: true}
	run := func(inj congest.FaultInjector) []byte {
		t.Helper()
		var buf bytes.Buffer
		tracer := congest.NewNDJSONTracer(&buf)
		opts := reliableOptions(g.NumVertices())
		opts.IDSeed = 5
		opts.Tracer = tracer
		opts.Injector = inj
		if _, err := protocols.Run(g, cfg, opts); err != nil {
			t.Fatal(err)
		}
		if err := tracer.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := run(nil)
	if len(base) == 0 {
		t.Fatal("empty baseline trace")
	}
	for _, seed := range []int64{0, 17, -4} {
		if got := run(faults.New(faults.Config{Seed: seed, ReorderWindow: 9})); !bytes.Equal(got, base) {
			t.Fatalf("seed %d: reliable wire stream diverged under a quiet schedule (%d bytes vs %d)",
				seed, len(got), len(base))
		}
	}
}
