package perf

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/treedepth"
)

// solveMode selects the pipeline a job runs through.
type solveMode int

const (
	modeDist     solveMode = iota // Theorem 6.1 protocol on the CONGEST engine
	modeReliable                  // the same behind the ARQ adapter, with injected faults
	modeSeq                       // Algorithm 1 over the DFS elimination forest
)

// treedepthBound is the treedepth parameter d of every generated input and
// every distributed solve.
const treedepthBound = 3

// job is one solvable (graph, problem, pipeline) triple.
type job struct {
	name   string
	g      *graph.Graph
	prob   core.Problem
	mode   solveMode
	faults faults.Config // modeReliable only
}

// options returns the CONGEST options of one solve: parallel with one worker
// per CPU for timed solves, serial for the traced pass. A reliable job gets
// its fault injector and the ARQ frame headroom.
func (j *job) options(parallel bool, workers int) congest.Options {
	opts := congest.Options{Parallel: parallel, Workers: workers}
	if j.mode == modeReliable {
		opts.Injector = faults.New(j.faults)
		opts.BandwidthFactor = protocols.ReliableBandwidthFactor(j.g.NumVertices())
	}
	return opts
}

// solve runs the job through the repository's one-shot entry points.
func (j *job) solve(opts congest.Options) (*core.Solution, error) {
	switch j.mode {
	case modeSeq:
		return core.SolveSequential(j.g, j.prob)
	case modeReliable:
		return core.SolveDistributedReliable(j.g, j.prob, treedepthBound, opts, protocols.ReliableConfig{})
	default:
		return core.SolveDistributed(j.g, j.prob, treedepthBound, opts)
	}
}

// traced runs the job through the traced pipeline (see traced.go),
// accumulating into l.
func (j *job) traced(opts congest.Options, l *layers) (*core.Solution, error) {
	switch j.mode {
	case modeSeq:
		return tracedSeq(j.g, j.prob, l)
	case modeReliable:
		return tracedDist(j.g, j.prob, treedepthBound, opts, &protocols.ReliableConfig{}, l)
	default:
		return tracedDist(j.g, j.prob, treedepthBound, opts, nil, l)
	}
}

// expect is a batch workload's oracle answer.
type expect struct {
	accepted bool  // decision problems
	weight   int64 // optimization problems
}

// batchSpec describes a batch workload: one generated graph solved over and
// over.
type batchSpec struct {
	problem  string
	n        int // vertices; quickN under Options.Quick
	quickN   int
	weighted bool
	mode     solveMode
	// oracle computes the expected answer independently of the timed path.
	// parent is the generator's witness elimination forest.
	oracle func(g *graph.Graph, parent []int, prob core.Problem) (expect, error)
}

// minSolves is the fewest timed solves a batch run makes, however long.
const minSolves = 3

func distElim(r *run) error {
	return r.runBatch(batchSpec{problem: "acyclic", n: 20000, quickN: 400, mode: modeDist, oracle: acyclicOracle})
}

func distDP(r *run) error {
	return r.runBatch(batchSpec{problem: "max-independent-set", n: 10000, quickN: 300, weighted: true, mode: modeDist, oracle: seqOracle})
}

func seqDP(r *run) error {
	return r.runBatch(batchSpec{problem: "max-independent-set", n: 50000, quickN: 1000, weighted: true, mode: modeSeq, oracle: witnessOracle})
}

func distFaults(r *run) error {
	return r.runBatch(batchSpec{problem: "acyclic", n: 500, quickN: 60, mode: modeReliable, oracle: acyclicOracle})
}

// acyclicOracle decides acyclicity centrally (m = n - #components).
func acyclicOracle(g *graph.Graph, _ []int, _ core.Problem) (expect, error) {
	ok, err := protocols.AcyclicSolver(g)
	return expect{accepted: ok}, err
}

// seqOracle solves with sequential Algorithm 1 over the DFS forest.
func seqOracle(g *graph.Graph, _ []int, prob core.Problem) (expect, error) {
	sol, err := core.SolveSequential(g, prob)
	if err != nil {
		return expect{}, err
	}
	return expect{weight: sol.Weight}, nil
}

// witnessOracle solves with Algorithm 1 over the generator's witness forest
// instead of the DFS forest the timed path builds.
func witnessOracle(g *graph.Graph, parent []int, prob core.Problem) (expect, error) {
	sol, err := core.SolveSequentialForest(g, prob, treedepth.NewForest(parent))
	if err != nil {
		return expect{}, err
	}
	return expect{weight: sol.Weight}, nil
}

// boundedTreedepthText generates the seeded bounded-treedepth input of a
// batch workload and serializes it; it also returns the generated graph and
// its witness forest for the oracle.
func boundedTreedepthText(n int, weighted bool, seed int64) ([]byte, *graph.Graph, []int, error) {
	g, parent := gen.BoundedTreedepth(n, treedepthBound, 0.1, seed)
	if weighted {
		gen.AssignRandomWeights(g, 50, seed+1)
	}
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		return nil, nil, nil, err
	}
	return text.Bytes(), g, parent, nil
}

// runBatch runs a batch workload: inputs and oracle, after which the peak RSS
// restarts; setups set-ups, each an ingest plus a first solve; timed solves
// for the window; and, in traced runs, the traced pass.
func (r *run) runBatch(s batchSpec) error {
	n := s.n
	if r.opt.Quick {
		n = s.quickN
	}
	prob, err := core.Lookup(s.problem)
	if err != nil {
		return err
	}
	text, g0, parent, err := boundedTreedepthText(n, s.weighted, r.opt.Seed)
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	want, err := s.oracle(g0, parent, prob)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if r.opt.Corrupt {
		want.accepted, want.weight = !want.accepted, want.weight+1
	}
	resetPeakRSS()
	j := &job{name: s.problem, prob: prob, mode: s.mode, faults: faultSchedule(r.opt.Seed)}

	var ref *core.Solution // first solve: every later solve must repeat its Stats
	var setup, ingest []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		j.g, err = graph.ReadEdgeList(bytes.NewReader(text))
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		ingest = append(ingest, time.Since(start).Seconds())
		sol, err := j.solve(j.options(true, r.workers))
		setup = append(setup, time.Since(start).Seconds())
		if ref == nil && err == nil {
			ref = sol
		}
		r.checkBatch(j, sol, err, want, ref)
	}

	before := takeRuntimeSnapshot()
	var lat []float64
	start := time.Now()
	for len(lat) < minSolves || time.Since(start) < r.opt.Window {
		t := time.Now()
		sol, err := j.solve(j.options(true, r.workers))
		lat = append(lat, millis(time.Since(t)))
		r.checkBatch(j, sol, err, want, ref)
	}
	elapsed := time.Since(start)
	after := takeRuntimeSnapshot()

	r.set("setup_s", quantile(setup, 0.5))
	r.set("latency_ms_p50", quantile(lat, 0.5))
	r.set("latency_ms_p99", quantile(lat, 0.99))
	r.set("throughput_qps", float64(len(lat))/elapsed.Seconds())
	r.set("peak_rss_mb", peakRSSMB())
	if !r.opt.Trace {
		return nil
	}
	r.set("graph.ingest_s", quantile(ingest, 0.5))
	r.setRuntimeDeltas(before, after, len(lat))
	return r.tracedPass([]*job{j})
}

// checkBatch checks one batch solve: no error, treedepth not exceeded, the
// oracle's verdict or weight, a valid selected set (max-IS is the batch
// workloads' only optimization problem), and CONGEST and ARQ counters
// identical to the reference solve's.
func (r *run) checkBatch(j *job, sol *core.Solution, err error, want expect, ref *core.Solution) {
	if err != nil {
		r.check(false, "%s: solve: %v", j.name, err)
		return
	}
	ok, why := true, ""
	switch {
	case sol.TdExceeded:
		ok, why = false, "treedepth reported exceeded"
	case j.prob.Kind == core.KindDecision && sol.Accepted != want.accepted:
		ok, why = false, fmt.Sprintf("verdict %v, oracle %v", sol.Accepted, want.accepted)
	case j.prob.Kind == core.KindOptimization && (!sol.Found || sol.Weight != want.weight):
		ok, why = false, fmt.Sprintf("weight %d (found %v), oracle %d", sol.Weight, sol.Found, want.weight)
	case j.prob.Kind == core.KindOptimization && !independentSetOfWeight(j.g, sol):
		ok, why = false, "selected set is not an independent set of the reported weight"
	case ref != nil && (sol.Stats != ref.Stats || sol.Reliability != ref.Reliability):
		ok, why = false, fmt.Sprintf("counters %+v differ from the first solve's %+v", sol.Stats, ref.Stats)
	}
	r.check(ok, "%s: %s", j.name, why)
}

// independentSetOfWeight reports whether the solution's selected vertices
// are pairwise non-adjacent and weigh exactly the reported optimum.
func independentSetOfWeight(g *graph.Graph, sol *core.Solution) bool {
	if sol.Selected == nil {
		return false
	}
	for _, e := range g.Edges() {
		if sol.Selected.Contains(e.U) && sol.Selected.Contains(e.V) {
			return false
		}
	}
	var w int64
	for _, v := range sol.Selected.Indices() {
		w += g.VertexWeight(v)
	}
	return w == sol.Weight
}

// faultSchedule is dist-faults' injected schedule: 5% drops, 2.5%
// duplicates, 2.5% reordering within 4 rounds.
func faultSchedule(seed int64) faults.Config {
	return faults.Config{Seed: seed, DropRate: 0.05, DupRate: 0.025, ReorderRate: 0.025, ReorderWindow: 4}
}
