package perf

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/regular"
	"repro/internal/seq"
	"repro/internal/treedepth"
	"repro/internal/wterm"
)

// The traced pass splits a serial solve into layers from outside the
// program: the pipeline is rebuilt from its public pieces (NewSimulator,
// sim.Run over protocols.NewNode, Result, AssembleResult for distributed
// runs; DFSForest, seq.New and the runner's phase for sequential ones), each
// node program is wrapped in a timing node, and the predicate in a timing
// decorator. Because the run is serial, node calls and the engine's routing
// between rounds alternate on one goroutine, so compute and route time
// partition the run.

// layers accumulates the per-layer time and work of traced solves.
type layers struct {
	simBuild, init, route, assemble time.Duration
	compute                         [len(phases) + 1]time.Duration // by phase; last slot: untagged
	sentBits                        [len(phases) + 1]int64
	calls                           int64
	pred                            time.Duration // inside the predicate (nested in compute / seq.dp)
	forest, seqBuild, seqDP         time.Duration
	wall                            time.Duration // traced solves end to end

	stats congest.Stats // summed over solves
	rel   protocols.RelStats
	cache regular.CacheStats
}

// phases are the protocol phase tags (congest.Env.Kind) that compute time
// and sent bits are attributed to, in slot order of layers.compute and
// sentBits.
var phases = [...]string{"elim", "bag", "table", "verdict", "target", "rel"}

func kindSlot(kind string) int {
	for i, k := range phases {
		if k == kind {
			return i
		}
	}
	return len(phases)
}

// covered is the time the layers account for; trace.coverage_frac divides
// it by the wall time.
func (l *layers) covered() time.Duration {
	t := l.simBuild + l.init + l.route + l.assemble + l.forest + l.seqBuild + l.seqDP
	for _, c := range l.compute {
		t += c
	}
	return t
}

// nodeClock times the node calls of one serial run with one clock read per
// call: each call is charged from the previous call's exit to its own exit,
// except the first call of a round, which also reads the clock on entry so
// the gap since the last round's final call is charged to routing.
type nodeClock struct {
	*layers
	start time.Time // sim.Run entry
	last  time.Time // exit of the previous node call
	round int       // round of the previous node call; -1 before the first
}

func (c *nodeClock) enter(round int) {
	if round == c.round {
		return
	}
	now := time.Now()
	if c.round < 0 {
		c.init += now.Sub(c.start)
	} else {
		c.route += now.Sub(c.last)
	}
	c.last, c.round = now, round
}

func (c *nodeClock) exit(env *congest.Env, out []congest.Outgoing) {
	now := time.Now()
	k := kindSlot(env.Kind())
	c.compute[k] += now.Sub(c.last)
	c.last = now
	c.calls++
	for _, o := range out {
		bits := int64(8 * len(o.Payload))
		if o.Port < 0 {
			bits *= int64(env.Degree)
		}
		c.sentBits[k] += bits
	}
}

// timedNode wraps a node program with the run's clock. It passes the real
// Env through, so the inner node's phase tags land where the engine and the
// clock read them.
type timedNode struct {
	inner congest.Node
	clock *nodeClock
}

func (n timedNode) Init(env *congest.Env) []congest.Outgoing {
	n.clock.enter(env.Round)
	out := n.inner.Init(env)
	n.clock.exit(env, out)
	return out
}

func (n timedNode) Round(env *congest.Env, inbox []congest.Incoming) ([]congest.Outgoing, bool) {
	n.clock.enter(env.Round)
	out, halted := n.inner.Round(env, inbox)
	n.clock.exit(env, out)
	return out, halted
}

// timedPred is a pass-through regular.Predicate that adds the time spent in
// the wrapped predicate to busy. No code type-asserts predicates, so the
// decorator changes nothing but the clock.
type timedPred struct {
	regular.Predicate
	busy *time.Duration
}

func (p timedPred) HomBase(base *wterm.TerminalGraph) ([]regular.BaseClass, error) {
	t := time.Now()
	out, err := p.Predicate.HomBase(base)
	*p.busy += time.Since(t)
	return out, err
}

func (p timedPred) Compose(f wterm.Gluing, c1, c2 regular.Class) (regular.Class, bool, error) {
	t := time.Now()
	c, ok, err := p.Predicate.Compose(f, c1, c2)
	*p.busy += time.Since(t)
	return c, ok, err
}

func (p timedPred) Accepting(c regular.Class) (bool, error) {
	t := time.Now()
	ok, err := p.Predicate.Accepting(c)
	*p.busy += time.Since(t)
	return ok, err
}

func (p timedPred) Selection(c regular.Class) (regular.Selection, error) {
	t := time.Now()
	sel, err := p.Predicate.Selection(c)
	*p.busy += time.Since(t)
	return sel, err
}

func (p timedPred) DecodeClass(data []byte) (regular.Class, error) {
	t := time.Now()
	c, err := p.Predicate.DecodeClass(data)
	*p.busy += time.Since(t)
	return c, err
}

// protocolMode maps a problem kind to the protocol phase it runs.
func protocolMode(kind core.Kind) (protocols.Mode, error) {
	switch kind {
	case core.KindDecision:
		return protocols.ModeDecide, nil
	case core.KindOptimization:
		return protocols.ModeOptimize, nil
	case core.KindCounting:
		return protocols.ModeCount, nil
	}
	return 0, fmt.Errorf("perf: unknown problem kind %d", kind)
}

// tracedDist solves like core.SolveDistributed (or, with rel set,
// SolveDistributedReliable) with every node call timed. opts must be serial.
func tracedDist(g *graph.Graph, prob core.Problem, d int, opts congest.Options, rel *protocols.ReliableConfig, l *layers) (*core.Solution, error) {
	start := time.Now()
	pred, err := prob.Build()
	if err != nil {
		return nil, err
	}
	mode, err := protocolMode(prob.Kind)
	if err != nil {
		return nil, err
	}
	cfg := protocols.Config{
		Pred: timedPred{Predicate: pred, busy: &l.pred}, Mode: mode, D: d, Maximize: prob.Maximize,
		VertexLabelNames: g.VertexLabelNames(), EdgeLabelNames: g.EdgeLabelNames(),
	}
	t := time.Now()
	sim, err := congest.NewSimulator(g, opts)
	l.simBuild += time.Since(t)
	if err != nil {
		return nil, err
	}

	// Result type-asserts the protocol's own node types, so keep the inner
	// nodes to read results from.
	nodes := make([]congest.Node, g.NumVertices())
	clock := &nodeClock{layers: l, start: time.Now(), round: -1}
	stats, err := sim.Run(func(v int) congest.Node {
		nodes[v] = protocols.NewNode(cfg)
		if rel != nil {
			nodes[v] = protocols.NewReliable(nodes[v], *rel)
		}
		return timedNode{inner: nodes[v], clock: clock}
	})
	clock.route += time.Since(clock.last) // the last round's routing and the engine's finish
	if err != nil {
		return nil, err
	}
	sol := &core.Solution{Stats: stats}
	outputs := make([]protocols.Output, len(nodes))
	for v, node := range nodes {
		if st, fail, ok := protocols.RelResult(node); ok {
			sol.Reliability = sol.Reliability.Add(st)
			if fail != nil {
				return nil, fail
			}
		}
		if outputs[v], err = protocols.Result(node); err != nil {
			return nil, err
		}
	}
	t = time.Now()
	res, err := protocols.AssembleResult(g, cfg, sim.IDs(), outputs)
	l.assemble += time.Since(t)
	if err != nil {
		return nil, err
	}
	l.wall += time.Since(start)

	sol.TdExceeded, sol.Accepted, sol.Found = res.TdExceeded, res.Accepted, res.Found
	sol.Weight, sol.Count, sol.Selected = res.Weight, res.Count, res.Selected
	if sol.Selected == nil {
		sol.Selected = res.SelectedEdges
	}
	l.addCounters(sol.Stats, sol.Reliability, res.Cache)
	return sol, nil
}

// tracedSeq solves like core.SolveSequential with the forest, derivation and
// DP phases timed.
func tracedSeq(g *graph.Graph, prob core.Problem, l *layers) (*core.Solution, error) {
	start := time.Now()
	pred, err := prob.Build()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	forest := treedepth.DFSForest(g)
	l.forest += time.Since(t)
	t = time.Now()
	runner, err := seq.New(g, forest, timedPred{Predicate: pred, busy: &l.pred})
	l.seqBuild += time.Since(t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	sol, err := finishSequential(runner, prob)
	l.seqDP += time.Since(t)
	if err != nil {
		return nil, err
	}
	l.wall += time.Since(start)
	l.addCounters(congest.Stats{}, protocols.RelStats{}, runner.CacheStats())
	return sol, nil
}

// finishSequential runs the runner's phase for the problem kind, as
// core.SolveSequential does.
func finishSequential(runner *seq.Runner, prob core.Problem) (*core.Solution, error) {
	sol := &core.Solution{}
	var err error
	switch prob.Kind {
	case core.KindDecision:
		sol.Accepted, err = runner.Decide()
	case core.KindOptimization:
		var res seq.OptResult
		res, err = runner.Optimize(prob.Maximize)
		sol.Found, sol.Weight, sol.Selected = res.Found, res.Weight, res.Vertices
		if sol.Selected == nil {
			sol.Selected = res.Edges
		}
	case core.KindCounting:
		sol.Count, err = runner.Count()
	default:
		err = fmt.Errorf("perf: unknown problem kind %d", prob.Kind)
	}
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// addCounters folds one traced solve's counters into the totals.
func (l *layers) addCounters(st congest.Stats, rel protocols.RelStats, cache regular.CacheStats) {
	l.stats.Rounds += st.Rounds
	l.stats.Messages += st.Messages
	l.stats.Bits += st.Bits
	l.stats.Faults.Dropped += st.Faults.Dropped
	l.stats.Faults.Duplicated += st.Faults.Duplicated
	l.stats.Faults.Delayed += st.Faults.Delayed
	l.rel = l.rel.Add(rel)
	l.cache = l.cache.Add(cache)
}

// sameSolution reports whether two solutions agree on every answer field and
// every CONGEST and ARQ counter.
func sameSolution(a, b *core.Solution) bool {
	if a.TdExceeded != b.TdExceeded || a.Accepted != b.Accepted || a.Found != b.Found ||
		a.Weight != b.Weight || a.Count != b.Count || a.Stats != b.Stats || a.Reliability != b.Reliability {
		return false
	}
	if a.Selected == nil || b.Selected == nil {
		return a.Selected == nil && b.Selected == nil
	}
	return a.Selected.Equal(b.Selected)
}

// tracedReps is the number of rounds of the traced pass; the layers of the
// round with the median traced time are reported.
const tracedReps = 3

// tracedPass runs tracedReps rounds over the jobs; each round times, per
// job, one parallel and one serial untraced solve and one traced serial
// solve, and checks that all three agree. It records the per-layer metrics,
// summed over the jobs, of the median round; the overhead and the parallel
// speedup compare median round times.
func (r *run) tracedPass(jobs []*job) error {
	rounds := make([]layers, tracedReps)
	var parallel, serial []float64
	for i := range rounds {
		var par, ser time.Duration
		for _, j := range jobs {
			t := time.Now()
			fast, err := j.solve(j.options(true, r.workers))
			par += time.Since(t)
			if err != nil {
				return fmt.Errorf("%s: parallel solve: %w", j.name, err)
			}
			t = time.Now()
			plain, err := j.solve(j.options(false, 1))
			ser += time.Since(t)
			if err != nil {
				return fmt.Errorf("%s: serial solve: %w", j.name, err)
			}
			traced, err := j.traced(j.options(false, 1), &rounds[i])
			if err != nil {
				return fmt.Errorf("%s: traced solve: %w", j.name, err)
			}
			r.check(sameSolution(fast, plain) && sameSolution(plain, traced),
				"%s: parallel, serial and traced solves disagree", j.name)
		}
		parallel, serial = append(parallel, par.Seconds()), append(serial, ser.Seconds())
	}
	sort.Slice(rounds, func(a, b int) bool { return rounds[a].wall < rounds[b].wall })
	l := rounds[tracedReps/2]

	r.set("congest.sim_build_s", l.simBuild.Seconds())
	r.set("congest.init_s", l.init.Seconds())
	r.set("congest.route_s", l.route.Seconds())
	if l.stats.Messages > 0 {
		r.set("congest.route_ns_per_msg", float64(l.route.Nanoseconds())/float64(l.stats.Messages))
	}
	r.set("congest.messages", float64(l.stats.Messages))
	r.set("congest.rounds", float64(l.stats.Rounds))
	r.set("congest.bits", float64(l.stats.Bits))
	r.set("congest.parallel_speedup", quantile(serial, 0.5)/quantile(parallel, 0.5))
	for i, ph := range phases {
		r.set("protocols.compute_s."+ph, l.compute[i].Seconds())
		r.set("protocols.sent_bits."+ph, float64(l.sentBits[i]))
	}
	r.set("protocols.node_calls", float64(l.calls))
	r.set("protocols.assemble_s", l.assemble.Seconds())
	r.set("protocols.reliable.chunks", float64(l.rel.Chunks))
	r.set("protocols.reliable.retransmits", float64(l.rel.Retransmits))
	r.set("protocols.reliable.ack_frames", float64(l.rel.AckFrames))
	r.set("faults.dropped", float64(l.stats.Faults.Dropped))
	r.set("faults.duplicated", float64(l.stats.Faults.Duplicated))
	r.set("faults.delayed", float64(l.stats.Faults.Delayed))
	r.setCache(l.cache)
	r.set("regular.pred_s", l.pred.Seconds())
	r.set("treedepth.forest_s", l.forest.Seconds())
	r.set("seq.build_s", l.seqBuild.Seconds())
	r.set("seq.dp_s", l.seqDP.Seconds())
	r.set("trace.overhead_frac", l.wall.Seconds()/quantile(serial, 0.5)-1)
	r.set("trace.coverage_frac", l.covered().Seconds()/l.wall.Seconds())
	return nil
}

// setCache records the regular.* DP-cache counters.
func (r *run) setCache(c regular.CacheStats) {
	r.set("regular.compose_hits", float64(c.ComposeHits))
	r.set("regular.compose_misses", float64(c.ComposeMisses))
	r.set("regular.compose_hit_rate", c.ComposeHitRate())
	r.set("regular.classes", float64(c.Classes))
	r.set("regular.decode_misses", float64(c.DecodeMisses))
}
