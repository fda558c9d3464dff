package protocols_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
)

// reliableOptions returns simulator options with the bandwidth headroom the
// adapter needs on an n-node network.
func reliableOptions(n int) congest.Options {
	return congest.Options{BandwidthFactor: protocols.ReliableBandwidthFactor(n)}
}

// TestReliableFaultFreeMatchesRaw: on a fault-free network the adapter is a
// pure (slower) transport: verdict and elimination forest match the raw run.
func TestReliableFaultFreeMatchesRaw(t *testing.T) {
	g, _ := gen.BoundedTreedepth(18, 2, 0.3, 42)
	raw, err := protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 2}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 2, Reliable: true}
	rel, err := protocols.Run(g, cfg, reliableOptions(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if rel.TdExceeded != raw.TdExceeded || rel.Accepted != raw.Accepted {
		t.Fatalf("reliable verdict (td=%v acc=%v) != raw (td=%v acc=%v)",
			rel.TdExceeded, rel.Accepted, raw.TdExceeded, raw.Accepted)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if rel.Forest.Parent[v] != raw.Forest.Parent[v] {
			t.Fatalf("vertex %d: reliable parent %d != raw parent %d",
				v, rel.Forest.Parent[v], raw.Forest.Parent[v])
		}
	}
	if rel.Reliability.VirtualRounds == 0 || rel.Reliability.Chunks == 0 {
		t.Fatalf("adapter reported no work: %+v", rel.Reliability)
	}
	if rel.Reliability.Poisoned != 0 {
		t.Fatalf("fault-free run poisoned: %+v", rel.Reliability)
	}
	if rel.Stats.Rounds <= raw.Stats.Rounds {
		t.Fatalf("adapter cannot be faster than raw: %d <= %d rounds",
			rel.Stats.Rounds, raw.Stats.Rounds)
	}
}

// TestReliableMasksDrops: the adapter must absorb a 20% per-message drop
// rate (plus duplicates and reordering) and still produce the fault-free
// verdict, with the loss visible in the retransmission counters.
func TestReliableMasksDrops(t *testing.T) {
	g, _ := gen.BoundedTreedepth(14, 2, 0.3, 43)
	want, err := protocols.Run(g, protocols.Config{Pred: predicates.Connectivity{}, Mode: protocols.ModeDecide, D: 2}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocols.Config{Pred: predicates.Connectivity{}, Mode: protocols.ModeDecide, D: 2, Reliable: true}
	opts := reliableOptions(g.NumVertices())
	opts.Injector = faults.New(faults.Config{
		Seed: 7, DropRate: 0.2, DupRate: 0.1, ReorderRate: 0.1, ReorderWindow: 4,
	})
	res, err := protocols.Run(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TdExceeded || res.Accepted != want.Accepted {
		t.Fatalf("verdict under 20%% drop (td=%v acc=%v) != fault-free (acc=%v)",
			res.TdExceeded, res.Accepted, want.Accepted)
	}
	if res.Reliability.Retransmits == 0 {
		t.Fatalf("20%% drop produced no retransmissions: %+v", res.Reliability)
	}
	if res.Stats.Faults.Dropped == 0 {
		t.Fatalf("injector dropped nothing: %+v", res.Stats.Faults)
	}
}

// TestReliableUnrecoverable: a drop rate beyond any retry budget must fail
// loudly with the typed error, not hang or return a wrong verdict.
func TestReliableUnrecoverable(t *testing.T) {
	g, _ := gen.BoundedTreedepth(10, 2, 0.4, 44)
	cfg := protocols.Config{
		Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 2,
		Reliable: true,
		Rel:      protocols.ReliableConfig{Timeout: 2, MaxRetries: 3},
	}
	opts := reliableOptions(g.NumVertices())
	opts.Injector = faults.New(faults.Config{Seed: 3, DropRate: 0.95})
	opts.RoundLimit = 1 << 14
	_, err := protocols.Run(g, cfg, opts)
	if err == nil {
		t.Fatal("95% drop with a 3-retry budget must fail")
	}
	if !errors.Is(err, protocols.ErrUnrecoverable) {
		t.Fatalf("error is not ErrUnrecoverable: %v", err)
	}
	var unrec *protocols.UnrecoverableError
	if !errors.As(err, &unrec) {
		t.Fatalf("error is not *UnrecoverableError: %v", err)
	}
	if unrec.FromID == unrec.ToID || unrec.Round <= 0 {
		t.Fatalf("failure lacks the offending edge/round: %+v", unrec)
	}
	if !strings.Contains(err.Error(), "edge") {
		t.Fatalf("error message should name the edge: %v", err)
	}
}

// TestReliableRejectsTinyBudget: the driver must refuse a physical frame
// budget too small for the ARQ framing instead of failing opaquely.
func TestReliableRejectsTinyBudget(t *testing.T) {
	g, _ := gen.BoundedTreedepth(12, 2, 0.3, 45)
	cfg := protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: 2, Reliable: true}
	_, err := protocols.Run(g, cfg, congest.Options{}) // default factor: ~3-byte frames
	if err == nil || !strings.Contains(err.Error(), "frame budget") {
		t.Fatalf("want frame-budget error, got %v", err)
	}
}

// TestReliableSurvivesCrashRestart: crash-restart outages shorter than the
// retry budget are masked like drops.
func TestReliableSurvivesCrashRestart(t *testing.T) {
	g, _ := gen.BoundedTreedepth(12, 2, 0.3, 46)
	want, err := protocols.Run(g, protocols.Config{Pred: predicates.KColorability{K: 2}, Mode: protocols.ModeDecide, D: 2}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocols.Config{Pred: predicates.KColorability{K: 2}, Mode: protocols.ModeDecide, D: 2, Reliable: true}
	opts := reliableOptions(g.NumVertices())
	opts.Injector = faults.New(faults.Config{Seed: 11, CrashRate: 0.002, MinOutage: 1, MaxOutage: 4})
	res, err := protocols.Run(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TdExceeded || res.Accepted != want.Accepted {
		t.Fatalf("verdict under crash-restart (td=%v acc=%v) != fault-free (acc=%v)",
			res.TdExceeded, res.Accepted, want.Accepted)
	}
	if res.Stats.Faults.CrashRounds == 0 {
		t.Fatalf("schedule crashed nobody: %+v", res.Stats.Faults)
	}
}
