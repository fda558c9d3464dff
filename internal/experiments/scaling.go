package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// The scaling scenario (S1) measures the CONGEST engine itself — scheduling,
// delivery, and allocation overhead — at the large n the ROADMAP north star
// targets, on three graph families (path, random tree, sparse GNP). Every
// configuration runs both sequentially and on the worker pool, and the
// sweep cross-checks that the two modes produce bit-identical stats and
// node states; cmd/bench serializes the result as BENCH_congest.json so
// successive PRs have a perf trajectory to compare against.
//
// Each (family, n, mode) cell is one cold run on a fresh Simulator,
// bracketed by runtime.MemStats reads. The reported allocs/round and
// peak-heap columns therefore include the run's own buffer growth (inboxes,
// payload arenas, route buckets growing from empty); the steady-state round
// loop is pinned at zero allocations by engine_alloc_test.go and
// node_alloc_test.go instead.

// scalingHeartbeatRounds is the fixed round count of the S1 workload.
const scalingHeartbeatRounds = 8

// scalingNode broadcasts a 2-byte running accumulator each round for a fixed
// number of rounds, then halts. Per-round work is O(deg), so the simulator
// cost is Θ(rounds · m) and the measurement isolates engine overhead rather
// than protocol logic. Payload and outbox live inside the node struct, so
// the workload itself allocates nothing per round — allocs_per_round
// measures the engine alone, buffer growth included.
type scalingNode struct {
	rounds int
	acc    int
	buf    [2]byte
	out    [1]congest.Outgoing
}

func (h *scalingNode) emit() []congest.Outgoing {
	h.buf[0], h.buf[1] = byte(h.acc), byte(h.acc>>8)
	h.out[0] = congest.Broadcast(congest.Message(h.buf[:]))
	return h.out[:]
}

func (h *scalingNode) Init(env *congest.Env) []congest.Outgoing {
	h.acc = env.ID & 0xFFFF
	return h.emit()
}

func (h *scalingNode) Round(env *congest.Env, inbox []congest.Incoming) ([]congest.Outgoing, bool) {
	for _, in := range inbox {
		h.acc += int(in.Payload[0]) | int(in.Payload[1])<<8
	}
	h.acc &= 0xFFFF
	h.rounds++
	if h.rounds >= scalingHeartbeatRounds {
		return nil, true
	}
	return h.emit(), false
}

// ScalingRun is one (family, n, mode) measurement.
type ScalingRun struct {
	Family    string  `json:"family"`
	N         int     `json:"n"`
	Edges     int     `json:"edges"`
	Mode      string  `json:"mode"` // "seq" or "par"
	Workers   int     `json:"workers"`
	Rounds    int     `json:"rounds"`
	Messages  int64   `json:"messages"`
	Bits      int64   `json:"bits"`
	Bandwidth int     `json:"bandwidth_bits"`
	WallMS    float64 `json:"wall_ms"`
	// AllocsPerRound is the run's heap allocations divided by its rounds.
	// The run is cold, so this counts the engine's setup and the growth of
	// its buffers, not only the steady-state rounds.
	AllocsPerRound float64 `json:"allocs_per_round"`
	// PeakHeapMB is the heap in use right after the run, before any GC — an
	// upper-bound proxy for the run's working set, buffer growth included.
	PeakHeapMB float64 `json:"peak_heap_mb"`
	// Checksum digests every node's final accumulator; equal checksums and
	// stats across modes certify bit-identical execution.
	Checksum uint64 `json:"checksum"`
	// MatchesSequential is set on "par" runs: true when stats and checksum
	// equal the paired "seq" run. Omitted on "seq" rows — the baseline has
	// nothing to match against.
	MatchesSequential *bool `json:"matches_sequential,omitempty"`
}

// ScalingReport is the BENCH_congest.json document.
type ScalingReport struct {
	Harness    string       `json:"harness"`
	Quick      bool         `json:"quick"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Runs       []ScalingRun `json:"runs"`
	// AllMatch is true iff every parallel run matched its sequential twin.
	AllMatch bool `json:"all_match"`
}

func scalingGraph(family string, n int) *graph.Graph {
	switch family {
	case "path":
		return gen.Path(n)
	case "tree":
		return gen.RandomTree(n, 7)
	case "gnp":
		// Expected degree ~8; the spine keeps it connected at any n.
		return gen.ConnectedSparseGNP(n, 8/float64(n), 11)
	default:
		panic("unknown scaling family " + family)
	}
}

func scalingSizes(quick bool) []int {
	if quick {
		return []int{2000, 10000}
	}
	return []int{100000, 1000000}
}

// ScalingSweep runs the S1 scenario at the default sizes: each family ×
// size, sequential then parallel, verifying mode equivalence as it goes.
func ScalingSweep(quick bool) (*ScalingReport, error) {
	return ScalingSweepSizes(quick, nil)
}

// ScalingSweepSizes is ScalingSweep with an explicit size list (nil means
// the defaults); CI uses it to run a reduced sweep without forking the
// harness.
func ScalingSweepSizes(quick bool, sizes []int) (*ScalingReport, error) {
	if len(sizes) == 0 {
		sizes = scalingSizes(quick)
	}
	rep := &ScalingReport{
		Harness:    "cmd/bench S1 (engine scaling)",
		Quick:      quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		AllMatch:   true,
	}
	for _, family := range []string{"path", "tree", "gnp"} {
		for _, n := range sizes {
			g := scalingGraph(family, n)
			var seqRun ScalingRun
			for _, mode := range []string{"seq", "par"} {
				run, err := scalingOnce(g, family, n, mode)
				if err != nil {
					return nil, fmt.Errorf("scaling %s n=%d %s: %w", family, n, mode, err)
				}
				if mode == "seq" {
					seqRun = run
				} else {
					match := run.Checksum == seqRun.Checksum &&
						run.Rounds == seqRun.Rounds &&
						run.Messages == seqRun.Messages &&
						run.Bits == seqRun.Bits
					run.MatchesSequential = &match
					if !match {
						rep.AllMatch = false
					}
				}
				rep.Runs = append(rep.Runs, run)
			}
		}
	}
	if !rep.AllMatch {
		return rep, fmt.Errorf("scaling sweep: parallel output diverged from sequential")
	}
	return rep, nil
}

func scalingOnce(g *graph.Graph, family string, n int, mode string) (ScalingRun, error) {
	opts := congest.Options{Parallel: mode == "par"}
	sim, err := congest.NewSimulator(g, opts)
	if err != nil {
		return ScalingRun{}, err
	}
	nodes := make([]scalingNode, n)
	factory := func(v int) congest.Node {
		nodes[v] = scalingNode{}
		return &nodes[v]
	}

	// The run, bracketed by MemStats: Mallocs delta / rounds is the engine's
	// per-round allocation count, and HeapAlloc right after the run (pre-GC)
	// bounds the working set.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	stats, err := sim.Run(factory)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return ScalingRun{}, err
	}

	h := fnv.New64a()
	var buf [2]byte
	for v := range nodes {
		buf[0], buf[1] = byte(nodes[v].acc), byte(nodes[v].acc>>8)
		h.Write(buf[:])
	}
	allocsPerRound := 0.0
	if stats.Rounds > 0 {
		allocsPerRound = float64(m1.Mallocs-m0.Mallocs) / float64(stats.Rounds)
	}
	return ScalingRun{
		Family:         family,
		N:              n,
		Edges:          g.NumEdges(),
		Mode:           mode,
		Workers:        opts.Workers,
		Rounds:         stats.Rounds,
		Messages:       stats.Messages,
		Bits:           stats.Bits,
		Bandwidth:      stats.Bandwidth,
		WallMS:         float64(wall.Microseconds()) / 1000,
		AllocsPerRound: allocsPerRound,
		PeakHeapMB:     float64(m1.HeapAlloc) / (1 << 20),
		Checksum:       h.Sum64(),
	}, nil
}

// ScalingTable renders a ScalingReport as the S1 experiment table.
func ScalingTable(rep *ScalingReport) *Table {
	tab := &Table{
		ID:     "S1",
		Title:  "engine scaling: wall time vs n, sequential vs worker pool",
		Claim:  "the CSR+arena engine handles n = 10^6 across graph families in one cold run, and parallel execution is bit-identical to sequential",
		Header: []string{"family", "n", "edges", "mode", "rounds", "messages", "bits", "wall ms", "allocs/round", "peak heap MB", "match"},
	}
	for _, r := range rep.Runs {
		match := "-"
		if r.MatchesSequential != nil {
			match = fmt.Sprintf("%v", *r.MatchesSequential)
		}
		tab.AddRow(r.Family, r.N, r.Edges, r.Mode, r.Rounds, r.Messages, r.Bits,
			fmt.Sprintf("%.1f", r.WallMS), fmt.Sprintf("%.1f", r.AllocsPerRound),
			fmt.Sprintf("%.1f", r.PeakHeapMB), match)
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("workload: every node broadcasts 2 bytes/round for %d rounds (cost Θ(rounds·m))", scalingHeartbeatRounds),
		"each cell is one cold run: allocs/round and peak heap include the run's buffer growth; engine_alloc_test.go and node_alloc_test.go pin the steady-state round loop at 0 allocations",
		fmt.Sprintf("GOMAXPROCS=%d; 'match' certifies parallel stats+state == sequential ('-' on the seq baseline rows)", rep.GoMaxProcs))
	return tab
}

// S1Scaling is the Experiment wrapper over ScalingSweep.
func S1Scaling(quick bool) (*Table, error) {
	rep, err := ScalingSweep(quick)
	if err != nil {
		return nil, err
	}
	return ScalingTable(rep), nil
}
