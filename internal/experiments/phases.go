package experiments

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
)

// T8PhaseBreakdown measures where rounds and bits are spent inside the
// protocol pipeline, per message kind, using the round-level tracer: the
// Algorithm 2 elimination flood (Lemma 5.1, O(2^2d) rounds), the canonical
// bag propagation (Lemma 5.3, O(2^d) rounds), and the Theorem 6.1 DP
// phases.
func T8PhaseBreakdown(quick bool) (*Table, error) {
	t := &Table{
		ID:     "T8",
		Title:  "Per-phase round/bit breakdown (tracer)",
		Claim:  "Lemma 5.1/5.3: elimination dominates rounds (O(2^2d)); decomposition and DP are O(2^d)-round tails",
		Header: []string{"problem", "phase", "rounds", "active", "messages", "bits", "bits%"},
	}
	n := 128
	if quick {
		n = 48
	}
	const d = 3
	runs := []struct {
		name string
		run  func(*congest.MetricsTracer) (*protocols.RunResult, error)
	}{
		{"acyclic (decide)", func(m *congest.MetricsTracer) (*protocols.RunResult, error) {
			g, _ := gen.BoundedTreedepth(n, d, 0.1, 11)
			return protocols.Run(g, protocols.Config{Pred: predicates.Acyclicity{}, Mode: protocols.ModeDecide, D: d}, congest.Options{IDSeed: 1, Tracer: m})
		}},
		{"max-IS (optimize)", func(m *congest.MetricsTracer) (*protocols.RunResult, error) {
			g, _ := gen.BoundedTreedepth(n/2, d, 0.1, 12)
			gen.AssignRandomWeights(g, 10, 13)
			return protocols.Run(g, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeOptimize, D: d, Maximize: true}, congest.Options{IDSeed: 1, Tracer: m})
		}},
	}
	for _, r := range runs {
		var m congest.MetricsTracer
		res, err := r.run(&m)
		if err != nil {
			return nil, fmt.Errorf("T8 %s: %w", r.name, err)
		}
		if res.TdExceeded {
			return nil, fmt.Errorf("T8 %s: unexpected treedepth report", r.name)
		}
		stats := m.Stats()
		for _, k := range m.PerKind() {
			share := 0.0
			if stats.Bits > 0 {
				share = 100 * float64(k.Bits) / float64(stats.Bits)
			}
			t.AddRow(r.name, k.Kind,
				fmt.Sprintf("%d-%d", k.FirstRound, k.LastRound),
				k.Rounds, k.Messages, k.Bits, fmt.Sprintf("%.1f", share))
		}
		t.AddRow(r.name, "TOTAL", stats.Rounds, "", stats.Messages, stats.Bits,
			fmt.Sprintf("util=%.2f%%", 100*m.Utilization()))
	}
	t.Notes = append(t.Notes,
		"rounds column is the first-last round span; active counts rounds with traffic of that kind",
		"capture the same breakdown for any instance with: dmc -trace - ... | trace")
	return t, nil
}
