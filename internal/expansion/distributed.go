package expansion

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
)

// DistributedPeeling runs the O(log n)-round CONGEST peeling: in each
// iteration, every remaining vertex of remaining degree at most degCap peels
// itself and announces it. With degCap at least four times the degeneracy, at
// least half of the remaining vertices peel per iteration, so
// ceil(log2 n) + O(1) iterations suffice, at one round each. This is the
// "standard distributed tool" underlying Theorem 7.2.
func DistributedPeeling(g *graph.Graph, degCap int, opts congest.Options) (*Peeling, congest.Stats, error) {
	if degCap < 1 {
		return nil, congest.Stats{}, fmt.Errorf("%w: degCap must be >= 1", ErrExpansion)
	}
	sim, err := congest.NewSimulator(g, opts)
	if err != nil {
		return nil, congest.Stats{}, err
	}
	n := g.NumVertices()
	nodes := make([]*peelNode, n)
	stats, err := sim.Run(func(v int) congest.Node {
		nodes[v] = &peelNode{degCap: degCap}
		return nodes[v]
	})
	if err != nil {
		return nil, stats, err
	}
	peeling := &Peeling{Layer: make([]int, n)}
	for v := 0; v < n; v++ {
		peeling.Layer[v] = nodes[v].layer
		if nodes[v].layer+1 > peeling.NumLayers {
			peeling.NumLayers = nodes[v].layer + 1
		}
	}
	return peeling, stats, nil
}

type peelNode struct {
	degCap    int
	layer     int
	remDeg    int
	peeled    bool
	iteration int
	maxIter   int
}

// KindPeel tags the peel announcements in traces.
const KindPeel = "peel"

// Init implements congest.Node.
func (p *peelNode) Init(env *congest.Env) []congest.Outgoing {
	env.Tag(KindPeel)
	p.remDeg = env.Degree
	p.layer = -1
	// ceil(log2 n) + slack iterations; stragglers get the last layer, which
	// degrades decomposition quality but never correctness (the H-freeness
	// driver re-certifies treedepth per union).
	p.maxIter = 2
	for v := 1; v < env.N; v *= 2 {
		p.maxIter++
	}
	return nil
}

// Round implements congest.Node. One iteration per round: process peel
// announcements from the previous round, then decide whether to peel.
func (p *peelNode) Round(env *congest.Env, inbox []congest.Incoming) ([]congest.Outgoing, bool) {
	for range inbox {
		p.remDeg--
	}
	p.iteration++
	if p.peeled {
		// Stay one extra round to drain (messages already sent).
		return nil, true
	}
	if p.remDeg <= p.degCap || p.iteration >= p.maxIter {
		p.peeled = true
		p.layer = p.iteration - 1
		return []congest.Outgoing{congest.Broadcast(congest.Message{1})}, false
	}
	return nil, false
}

// HFreeResult reports the outcome of the Corollary 7.3 driver.
type HFreeResult struct {
	HFree bool
	// Round accounting: peeling rounds (distributed) plus the per-subset
	// protocol rounds, summed as if the constant number of instances were
	// multiplexed on the CONGEST links.
	TotalRounds int64
	PeelRounds  int
	NumColors   int
	SubsetRuns  int
	// MaxD is the largest treedepth parameter any union needed; p when the
	// decomposition satisfies the Theorem 7.1 property.
	MaxD int
}

// HFreeDistributed decides whether g (connected, bounded expansion) contains
// the connected pattern h as a subgraph, following Corollary 7.3: compute a
// low treedepth decomposition (distributed peeling + greedy coloring), then
// run the Theorem 6.1 decision protocol for H-subgraph containment on every
// union of at most p = |V(H)| parts, component by component. Unions whose
// treedepth exceeds p (an imperfect decomposition) escalate d until
// Algorithm 2 certifies a tree, so the answer is always exact.
func HFreeDistributed(g, h *graph.Graph, degCap int, opts congest.Options) (*HFreeResult, error) {
	if !h.IsConnected() || h.NumVertices() < 1 {
		return nil, fmt.Errorf("%w: pattern must be connected and nonempty", ErrExpansion)
	}
	p := h.NumVertices()
	pred, err := predicates.NewHSubgraph(h)
	if err != nil {
		return nil, err
	}
	// H-subgraph homomorphism classes are large (sets of partial-embedding
	// configurations), so we simulate with a wider — still Θ(log n) — CONGEST
	// bandwidth to keep streamed-table round counts (and simulation time)
	// reasonable; this scales round counts by a constant only.
	if opts.BandwidthFactor < 32 {
		opts.BandwidthFactor = 32
	}
	_, peelStats, err := DistributedPeeling(g, degCap, opts)
	if err != nil {
		return nil, err
	}
	colors, numColors, err := LowTreedepthDecomposition(g, p)
	if err != nil {
		return nil, err
	}
	res := &HFreeResult{HFree: true, PeelRounds: peelStats.Rounds, NumColors: numColors, MaxD: p}
	res.TotalRounds = int64(peelStats.Rounds)
	subsets := Subsets(numColors, p)
	if len(subsets) > 1<<16 {
		return nil, fmt.Errorf("%w: %d part subsets (decomposition too coarse)", ErrExpansion, len(subsets))
	}
	for _, pick := range subsets {
		union := PartsUnion(colors, pick)
		if len(union) < p {
			continue
		}
		sub, _ := g.InducedSubgraph(union)
		var subsetRounds int64
		for _, comp := range sub.Components() {
			if len(comp) < p {
				continue
			}
			compG, _ := sub.InducedSubgraph(comp)
			d := p
			for {
				run, err := protocols.Run(compG, protocols.Config{Pred: pred, Mode: protocols.ModeDecide, D: d}, opts)
				if err != nil {
					return nil, err
				}
				if !run.TdExceeded {
					// Components run in parallel in CONGEST; charge the max.
					if int64(run.Stats.Rounds) > subsetRounds {
						subsetRounds = int64(run.Stats.Rounds)
					}
					if d > res.MaxD {
						res.MaxD = d
					}
					if run.Accepted {
						res.HFree = false
					}
					break
				}
				d++
				if 1<<uint(d) > 4*compG.NumVertices() {
					return nil, fmt.Errorf("%w: Algorithm 2 failed to certify a tree at d=%d on %d vertices",
						ErrExpansion, d, compG.NumVertices())
				}
			}
		}
		res.SubsetRuns++
		res.TotalRounds += subsetRounds
	}
	return res, nil
}
