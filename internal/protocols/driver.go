package protocols

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/regular"
	"repro/internal/treedepth"
)

// RunResult is the aggregate outcome of a distributed run.
type RunResult struct {
	Stats congest.Stats
	// TdExceeded is the protocol's "large treedepth" report (at least one
	// node rejected during Algorithm 2 or verification).
	TdExceeded bool
	// Decision / verification verdict.
	Accepted bool
	// Optimization outcome.
	Found         bool
	Weight        int64
	Selected      *bitset.Set // vertex indices (SetVertex predicates)
	SelectedEdges *bitset.Set // edge IDs (SetEdge predicates)
	// Counting outcome.
	Count int64
	// Forest is the elimination tree the protocol built (vertex-indexed),
	// for inspection and verification.
	Forest *treedepth.Forest
	// Outputs are the raw per-vertex outputs.
	Outputs []Output
	// Cache aggregates the per-node DP-cache counters (sums of counters,
	// maxima of gauges). Caching is computation-local, so these never affect
	// Stats — they report work avoided, not messages sent.
	Cache regular.CacheStats
	// Reliability aggregates the reliable-delivery adapter's counters when
	// Config.Reliable is set (zero otherwise).
	Reliability RelStats
}

// Run executes the full pipeline (Algorithm 2, Lemma 5.3, and the Theorem
// 6.1 phase for cfg.Mode) on g under the CONGEST simulator.
func Run(g *graph.Graph, cfg Config, opts congest.Options) (*RunResult, error) {
	if cfg.D < 1 {
		return nil, fmt.Errorf("%w: treedepth parameter d must be >= 1", ErrProtocol)
	}
	if cfg.VertexLabelNames == nil {
		cfg.VertexLabelNames = g.VertexLabelNames()
	}
	if cfg.EdgeLabelNames == nil {
		cfg.EdgeLabelNames = g.EdgeLabelNames()
	}
	if len(cfg.VertexLabelNames) > 32 || len(cfg.EdgeLabelNames) > 32 {
		return nil, fmt.Errorf("%w: at most 32 vertex and edge labels supported", ErrProtocol)
	}
	if cfg.Cache != nil && cfg.Cache.Predicate().Name() != cfg.Pred.Name() {
		return nil, fmt.Errorf("%w: shared cache wraps predicate %q, run wants %q",
			ErrProtocol, cfg.Cache.Predicate().Name(), cfg.Pred.Name())
	}
	sim, err := congest.NewSimulator(g, opts)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if cfg.Reliable {
		if got := congest.FrameBudgetBytes(opts.BandwidthBits(n)); got < ReliableMinFrameBytes {
			return nil, fmt.Errorf("%w: reliable delivery needs a frame budget of at least %d bytes, got %d (raise Options.BandwidthFactor, e.g. to ReliableBandwidthFactor(n))",
				ErrProtocol, ReliableMinFrameBytes, got)
		}
	}
	innerCfg := cfg
	innerCfg.Reliable = false
	pooled := slabPool.Get()
	defer slabPool.Put(pooled)
	slab := pooled.(*nodeSlab)
	defer slab.clear() // runs before the Put; outputs are copied out below
	dps := slab.fill(&innerCfg, n)
	nodes := make([]congest.Node, n)
	stats, err := sim.Run(func(v int) congest.Node {
		nodes[v] = &dps[v]
		if cfg.Reliable {
			nodes[v] = NewReliable(nodes[v], cfg.Rel)
		}
		return nodes[v]
	})
	if err != nil {
		return nil, err
	}

	var rel RelStats
	if cfg.Reliable {
		var firstFail *UnrecoverableError
		for v := 0; v < n; v++ {
			st, fail, ok := RelResult(nodes[v])
			if !ok {
				continue
			}
			rel = rel.Add(st)
			if fail != nil && firstFail == nil {
				firstFail = fail
			}
		}
		if firstFail != nil {
			// Poisoned nodes halted mid-protocol; their outputs are not
			// meaningful, so report the failure with the stats collected so
			// far instead of parsing garbage.
			return &RunResult{Stats: stats, Outputs: make([]Output, n), Reliability: rel}, firstFail
		}
	}
	outputs := make([]Output, n)
	for v := 0; v < n; v++ {
		out, err := Result(nodes[v])
		if err != nil {
			return nil, err
		}
		outputs[v] = out
	}
	res, err := AssembleResult(g, cfg, sim.IDs(), outputs)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	res.Reliability = rel
	return res, nil
}

// AssembleResult builds a RunResult from the raw per-vertex outputs of a
// finished run: parent-pointer resolution into the elimination forest, the
// failure rules, root-verdict collection, cache aggregation, and
// selected-set reconstruction. ids is the run's vertex -> identifier
// assignment; outputs is vertex-indexed and is retained in the result.
// Stats and Reliability are left zero for the caller to fill.
//
// The failure rules, in order: a predicate error (regular.ErrOverflow, an
// engine limit) is returned as the error, the first in vertex order, just as
// the sequential path returns it. Any other failure but Algorithm 2's
// rejection (a failed elimination-forest check, a malformed message) wraps
// ErrProtocol, since it signals a bug or corrupted traffic, not an answer.
// Only the rejection itself sets TdExceeded.
func AssembleResult(g *graph.Graph, cfg Config, ids []int, outputs []Output) (*RunResult, error) {
	n := g.NumVertices()
	if len(outputs) != n {
		return nil, fmt.Errorf("%w: %d outputs for %d vertices", ErrProtocol, len(outputs), n)
	}
	res := &RunResult{Outputs: outputs}
	idToVertex := make(map[int]int, n)
	for v, id := range ids {
		idToVertex[id] = v
	}
	parent := make([]int, n)
	roots := 0
	var predErr error
	worst := failNone
	for v := 0; v < n; v++ {
		out := outputs[v]
		res.Cache = res.Cache.Add(out.Cache)
		if predErr == nil && out.Err != nil {
			predErr = out.Err
		}
		worst = maxInt(worst, out.Failure)
		switch {
		case out.ParentID == -1:
			parent[v] = -1
			roots++
		case out.ParentID < -1:
			// Never adopted (such a node always fails failTdExceeded).
			parent[v] = -1
		default:
			pv, ok := idToVertex[out.ParentID]
			if !ok {
				return nil, fmt.Errorf("%w: unknown parent ID %d", ErrProtocol, out.ParentID)
			}
			parent[v] = pv
		}
	}
	res.Forest = treedepth.NewForest(parent)
	switch {
	case predErr != nil:
		return nil, predErr
	case worst == failTdExceeded:
		res.TdExceeded = true
		return res, nil
	case worst != failNone:
		return nil, fmt.Errorf("%w: failure code %d (elimination-forest check or malformed message)", ErrProtocol, worst)
	case roots != 1:
		return nil, fmt.Errorf("%w: %d elimination-tree roots", ErrProtocol, roots)
	}

	// Collect the root's verdict and per-node selections.
	for v := 0; v < n; v++ {
		out := res.Outputs[v]
		if out.IsRoot {
			res.Accepted = out.Accepted
			res.Found = out.Found
			res.Weight = out.Weight
			res.Count = out.Count
		}
	}
	if cfg.Mode == ModeOptimize && res.Found {
		switch cfg.Pred.SetKind() {
		case regular.SetVertex:
			res.Selected = bitset.New(n)
			for v := 0; v < n; v++ {
				if res.Outputs[v].Selected {
					res.Selected.Add(v)
				}
			}
		case regular.SetEdge:
			res.SelectedEdges = bitset.New(g.NumEdges())
			for v := 0; v < n; v++ {
				for _, ancestorID := range res.Outputs[v].SelectedEdges {
					av, ok := idToVertex[ancestorID]
					if !ok {
						return nil, fmt.Errorf("%w: unknown ancestor ID %d", ErrProtocol, ancestorID)
					}
					eid, ok := g.EdgeBetween(v, av)
					if !ok {
						return nil, fmt.Errorf("%w: node selected non-edge {%d,%d}", ErrProtocol, v, av)
					}
					res.SelectedEdges.Add(eid)
				}
			}
		}
	}
	return res, nil
}
