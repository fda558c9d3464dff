// Package core ties the engines together: a registry of named problems
// (predicate + mode + direction) spanning the paper's applications, used by
// the command-line tools and the benchmark harness, plus the one solve
// entry point: a Request, its Validate table, and Solve, which runs any
// problem sequentially (Algorithm 1) or distributed (Theorem 6.1).
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/mso/msolib"
	"repro/internal/msoauto"
	"repro/internal/protocols"
	"repro/internal/regular"
	"repro/internal/regular/predicates"
	"repro/internal/seq"
	"repro/internal/treedepth"
)

// ErrUnknownProblem is returned for unregistered problem names.
var ErrUnknownProblem = errors.New("core: unknown problem")

// Kind classifies what a problem computes.
type Kind int

// Problem kinds.
const (
	KindDecision Kind = iota + 1
	KindOptimization
	KindCounting
	// KindCheckMarked is optmarked (Section 6): is the set marked with
	// protocols.MarkLabel optimal? It has no sequential run and no
	// registered problem; the root facade's CheckMarked uses it.
	KindCheckMarked
)

// Problem is a registered, named problem instance.
type Problem struct {
	Name string
	Kind Kind
	// Maximize applies to optimization problems.
	Maximize bool
	// Build returns a fresh predicate (some predicates carry parameters).
	Build func() (regular.Predicate, error)
	// Oracle evaluates the problem naively for cross-validation; nil when
	// no oracle formula exists. For decision problems the weight is 0.
	Oracle func(g *graph.Graph) (bool, int64, error)
	// Description is a one-line human-readable summary.
	Description string
}

func decisionOracle(f mso.Formula) func(*graph.Graph) (bool, int64, error) {
	return func(g *graph.Graph) (bool, int64, error) {
		v, err := mso.NewEvaluator(g).Eval(f, nil)
		return v, 0, err
	}
}

func optOracle(f mso.Formula, kind mso.VarKind, maximize bool) func(*graph.Graph) (bool, int64, error) {
	return func(g *graph.Graph) (bool, int64, error) {
		res, err := mso.NewEvaluator(g).OptimizeSet(f, msolib.FreeSet, kind, maximize)
		if err != nil {
			return false, 0, err
		}
		return res.Found, res.Weight, nil
	}
}

// Problems returns the registry, sorted by name.
func Problems() []Problem {
	ps := []Problem{
		{
			Name: "acyclic", Kind: KindDecision,
			Build:       func() (regular.Predicate, error) { return predicates.Acyclicity{}, nil },
			Oracle:      decisionOracle(msolib.Acyclic()),
			Description: "G has no cycle (closed MSO)",
		},
		{
			Name: "connected", Kind: KindDecision,
			Build:       func() (regular.Predicate, error) { return predicates.Connectivity{}, nil },
			Oracle:      decisionOracle(msolib.Connected()),
			Description: "G is connected (closed MSO)",
		},
		{
			Name: "3-colorable", Kind: KindDecision,
			Build:       func() (regular.Predicate, error) { return predicates.KColorability{K: 3}, nil },
			Oracle:      decisionOracle(msolib.KColorable(3)),
			Description: "G admits a proper 3-coloring (the paper's running example, negated)",
		},
		{
			Name: "2-colorable", Kind: KindDecision,
			Build:       func() (regular.Predicate, error) { return predicates.KColorability{K: 2}, nil },
			Oracle:      decisionOracle(msolib.KColorable(2)),
			Description: "G is bipartite",
		},
		{
			Name: "triangle-free", Kind: KindDecision,
			Build: func() (regular.Predicate, error) {
				h := graph.New(3)
				h.MustAddEdge(0, 1)
				h.MustAddEdge(1, 2)
				h.MustAddEdge(2, 0)
				p, err := predicates.NewHSubgraph(h)
				if err != nil {
					return nil, err
				}
				return predicates.Negate(p), nil
			},
			Oracle:      decisionOracle(msolib.TriangleFree()),
			Description: "G contains no triangle (H-freeness via the subgraph predicate)",
		},
		{
			Name: "has-perfect-matching", Kind: KindDecision,
			Build:       func() (regular.Predicate, error) { return predicates.Matching{Perfect: true}, nil },
			Oracle:      decisionOracle(msolib.HasPerfectMatching()),
			Description: "G has a perfect matching",
		},
		{
			Name: "max-independent-set", Kind: KindOptimization, Maximize: true,
			Build:       func() (regular.Predicate, error) { return predicates.IndependentSet{}, nil },
			Oracle:      optOracle(msolib.IndependentSet(), mso.KindVertexSet, true),
			Description: "maximum-weight independent set",
		},
		{
			Name: "min-vertex-cover", Kind: KindOptimization, Maximize: false,
			Build:       func() (regular.Predicate, error) { return predicates.VertexCover{}, nil },
			Oracle:      optOracle(msolib.VertexCover(), mso.KindVertexSet, false),
			Description: "minimum-weight vertex cover",
		},
		{
			Name: "min-dominating-set", Kind: KindOptimization, Maximize: false,
			Build:       func() (regular.Predicate, error) { return predicates.DominatingSet{}, nil },
			Oracle:      optOracle(msolib.DominatingSet(), mso.KindVertexSet, false),
			Description: "minimum-weight dominating set",
		},
		{
			Name: "min-feedback-vertex-set", Kind: KindOptimization, Maximize: false,
			Build:       func() (regular.Predicate, error) { return predicates.FeedbackVertexSet{}, nil },
			Oracle:      optOracle(msolib.FeedbackVertexSet(), mso.KindVertexSet, false),
			Description: "minimum-weight feedback vertex set",
		},
		{
			Name: "mst", Kind: KindOptimization, Maximize: false,
			Build:       func() (regular.Predicate, error) { return predicates.SpanningTree{}, nil },
			Oracle:      optOracle(msolib.SpanningTree(), mso.KindEdgeSet, false),
			Description: "minimum-weight spanning tree",
		},
		{
			Name: "max-matching", Kind: KindOptimization, Maximize: true,
			Build:       func() (regular.Predicate, error) { return predicates.Matching{}, nil },
			Oracle:      optOracle(msolib.Matching(), mso.KindEdgeSet, true),
			Description: "maximum-weight matching",
		},
		{
			Name: "min-steiner-tree", Kind: KindOptimization, Maximize: false,
			Build:       func() (regular.Predicate, error) { return predicates.SteinerTree{}, nil },
			Description: "minimum-weight Steiner tree over 'terminal'-labeled vertices",
		},
		{
			Name: "hamiltonian-cycle", Kind: KindDecision,
			Build:       func() (regular.Predicate, error) { return decideViaExists{predicates.HamiltonianCycle{}}, nil },
			Description: "G has a Hamiltonian cycle",
		},
		{
			Name: "min-tsp-tour", Kind: KindOptimization, Maximize: false,
			Build:       func() (regular.Predicate, error) { return predicates.HamiltonianCycle{}, nil },
			Description: "minimum-weight Hamiltonian cycle",
		},
		{
			Name: "count-hamiltonian-cycles", Kind: KindCounting,
			Build:       func() (regular.Predicate, error) { return predicates.HamiltonianCycle{}, nil },
			Description: "number of Hamiltonian cycles",
		},
		{
			Name: "count-triangles", Kind: KindCounting,
			Build:       func() (regular.Predicate, error) { return predicates.Triangles{}, nil },
			Description: "number of triangles",
		},
		{
			Name: "count-perfect-matchings", Kind: KindCounting,
			Build:       func() (regular.Predicate, error) { return predicates.Matching{Perfect: true}, nil },
			Description: "number of perfect matchings",
		},
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

// Lookup finds a problem by name.
func Lookup(name string) (Problem, error) {
	for _, p := range Problems() {
		if p.Name == name {
			return p, nil
		}
	}
	return Problem{}, fmt.Errorf("%w: %q", ErrUnknownProblem, name)
}

// decideViaExists adapts a free-set predicate to the decision question
// "does some satisfying set exist?" — the class-set bottom-up phase already
// tracks all reachable classes, so Decide with the same predicate answers
// existence directly.
type decideViaExists struct {
	regular.Predicate
}

// ProblemFor resolves a problem by registry name or by closed MSO formula
// text; exactly one of the two must be set. A formula becomes a decision
// problem named "formula".
func ProblemFor(name, formula string) (Problem, error) {
	switch {
	case name != "" && formula != "":
		return Problem{}, fieldErr([]string{"problem", "formula"}, "use either %s or %s, not both")
	case name != "":
		return Lookup(name)
	case formula != "":
		pred, err := CompileClosedFormula(formula)
		if err != nil {
			return Problem{}, fmt.Errorf("formula: %w", err)
		}
		return Problem{
			Name: "formula", Kind: KindDecision,
			Build:       func() (regular.Predicate, error) { return pred, nil },
			Description: formula,
		}, nil
	}
	return Problem{}, fieldErr([]string{"problem", "formula"}, "need %s or %s")
}

// Mode is the Theorem 6.1 protocol phase that computes the problem.
func (p Problem) Mode() (protocols.Mode, error) {
	switch p.Kind {
	case KindDecision:
		return protocols.ModeDecide, nil
	case KindOptimization:
		return protocols.ModeOptimize, nil
	case KindCounting:
		return protocols.ModeCount, nil
	case KindCheckMarked:
		return protocols.ModeCheckMarked, nil
	}
	return 0, fmt.Errorf("core: problem %q has unknown kind %d", p.Name, p.Kind)
}

// Solution is the uniform result of Solve.
type Solution struct {
	TdExceeded bool
	Accepted   bool
	Found      bool
	Weight     int64
	Count      int64
	Selected   *bitset.Set // vertex or edge IDs, per predicate kind
	Stats      congest.Stats
	// Reliability holds the reliable-delivery adapter's counters when the
	// run used it (zero otherwise).
	Reliability protocols.RelStats
}

// solutionOf converts a protocol run's result into a Solution.
func solutionOf(run *protocols.RunResult) *Solution {
	sel := run.Selected
	if sel == nil {
		sel = run.SelectedEdges
	}
	return &Solution{
		TdExceeded: run.TdExceeded, Accepted: run.Accepted, Found: run.Found, Weight: run.Weight,
		Count: run.Count, Selected: sel, Stats: run.Stats, Reliability: run.Reliability,
	}
}

// Request is one solve: a problem on a graph, by sequential Algorithm 1 or
// by the Theorem 6.1 protocol under the CONGEST simulator. Front-ends
// decode their flags or JSON into a Request; Validate holds every rule on
// how its fields combine.
type Request struct {
	Graph   *graph.Graph
	Problem Problem
	// Sequential runs Algorithm 1 centrally instead of the protocol.
	Sequential bool
	// D is the protocol's treedepth parameter (>= 1). A sequential run does
	// not use it and accepts 0.
	D int
	// Forest is the elimination forest a sequential run evaluates along
	// (nil = the DFS forest); the protocol computes its own.
	Forest *treedepth.Forest
	// Options configures the CONGEST simulation (distributed runs only).
	Options congest.Options
	// Faults is the fault schedule. A live (non-Quiet) one installs its
	// injector, the reliable-delivery adapter, and the adapter's bandwidth
	// (protocols.ReliableBandwidthFactor); a Quiet one runs fault-free.
	Faults faults.Config
	// Reliable, when non-nil, wraps every node in the reliable-delivery
	// adapter with this configuration (a live Faults schedule implies the
	// zero configuration). A caller that sets Options.Injector itself also
	// sets Options.BandwidthFactor for the adapter's frames.
	Reliable *protocols.ReliableConfig
	// Cache is a shared DP cache wrapping the predicate Problem builds; it
	// saves work and never changes a result.
	Cache *regular.Shared
}

// Faulted reports whether the request's fault schedule is live.
func (r Request) Faulted() bool { return !r.Faults.Quiet() }

// Validate checks how the request's fields combine. A rejection is a
// *FieldError naming the offending fields; the graph is not consulted, so
// front-ends validate before reading it.
func (r Request) Validate() error {
	const congestOnly = "%s applies to the CONGEST run, not the sequential one"
	o := r.Options
	switch {
	case r.Problem.Build == nil:
		return fieldErr([]string{"problem", "formula"}, "need %s or %s")
	case r.Sequential && r.Problem.Kind == KindCheckMarked:
		return fieldErr([]string{"problem"}, "%s: optmarked runs only as the CONGEST protocol, not sequentially")
	case o.Workers < 0:
		return fieldErr([]string{"workers"}, "%s must be >= 0, got %d", o.Workers)
	case r.D < 0 || (r.D == 0 && !r.Sequential):
		return fieldErr([]string{"d"}, "%s must be >= 1, got %d", r.D)
	case r.Sequential && (o.Parallel || o.Workers != 0):
		return fieldErr([]string{"parallel", "workers"}, "%s/%s apply to the CONGEST run, not the sequential one")
	case r.Sequential && o.IDSeed != 0:
		return fieldErr([]string{"seed"}, congestOnly)
	case r.Sequential && (r.Faults != faults.Config{} || o.Injector != nil || r.Reliable != nil):
		return fieldErr([]string{"faults"}, congestOnly)
	case r.Sequential && o.Tracer != nil:
		return fieldErr([]string{"trace"}, congestOnly)
	case !r.Sequential && r.Forest != nil:
		return fieldErr([]string{"forest"}, "%s applies to the sequential run; the protocol computes its own")
	case r.Faulted() && o.Injector != nil:
		return fieldErr([]string{"faults"}, "%s: a live schedule and Options.Injector cannot both inject faults")
	}
	if _, err := r.Problem.Mode(); err != nil {
		return err
	}
	if r.Cache != nil {
		pred, err := r.Problem.Build()
		if err != nil {
			return err
		}
		if got, want := r.Cache.Predicate().Name(), pred.Name(); got != want {
			return fieldErr([]string{"cache"}, "%s wraps predicate %q, the problem builds %q", got, want)
		}
	}
	return nil
}

// FieldError is a Request that Validate rejects. Fields names the offending
// settings in core's spelling ("seed", "workers", ...); Spell renders the
// message with a front-end's own spelling of them.
type FieldError struct {
	Fields []string
	format string // one %s per field, then verbs for args
	args   []any
}

func fieldErr(fields []string, format string, args ...any) *FieldError {
	return &FieldError{Fields: fields, format: format, args: args}
}

// Spell renders the error with each field name passed through name, e.g.
// "-seed" for a command-line flag or `"seed"` for a JSON key.
func (e *FieldError) Spell(name func(field string) string) string {
	args := make([]any, 0, len(e.Fields)+len(e.args))
	for _, f := range e.Fields {
		args = append(args, name(f))
	}
	return fmt.Sprintf(e.format, append(args, e.args...)...)
}

func (e *FieldError) Error() string { return e.Spell(func(f string) string { return f }) }

// Solve validates the request and runs it. It is the only code that turns
// a problem into a run.
func Solve(r Request) (*Solution, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if r.Graph == nil {
		return nil, errors.New("core: request has no graph")
	}
	mode, _ := r.Problem.Mode() // checked by Validate
	if r.Sequential {
		return solveSequential(r, mode)
	}
	pred, err := r.Problem.Build()
	if err != nil {
		return nil, err
	}
	opts, rel := r.Options, r.Reliable
	if r.Faulted() {
		opts.Injector = faults.New(r.Faults)
		// The adapter's frames need headroom beyond the default bandwidth;
		// the wrapped protocol still sees the default budget.
		opts.BandwidthFactor = protocols.ReliableBandwidthFactor(r.Graph.NumVertices())
		if rel == nil {
			rel = &protocols.ReliableConfig{}
		}
	}
	cfg := protocols.Config{Pred: pred, Mode: mode, D: r.D, Maximize: r.Problem.Maximize, Cache: r.Cache}
	if rel != nil {
		cfg.Reliable, cfg.Rel = true, *rel
	}
	run, err := protocols.Run(r.Graph, cfg, opts)
	if err != nil {
		return nil, err
	}
	return solutionOf(run), nil
}

// solveSequential runs Algorithm 1 through the problem's phase.
func solveSequential(r Request, mode protocols.Mode) (*Solution, error) {
	forest := r.Forest
	if forest == nil {
		forest = treedepth.DFSForest(r.Graph)
	}
	var cache *regular.Cached
	if r.Cache != nil {
		cache = r.Cache.Handle()
	} else {
		pred, err := r.Problem.Build()
		if err != nil {
			return nil, err
		}
		cache = regular.NewCached(pred)
	}
	run, err := seq.NewWithCache(r.Graph, forest, cache)
	if err != nil {
		return nil, err
	}
	out := &Solution{}
	switch mode {
	case protocols.ModeDecide:
		out.Accepted, err = run.Decide()
	case protocols.ModeOptimize:
		var res seq.OptResult
		res, err = run.Optimize(r.Problem.Maximize)
		out.Found, out.Weight, out.Selected = res.Found, res.Weight, res.Vertices
		if out.Selected == nil {
			out.Selected = res.Edges
		}
	case protocols.ModeCount:
		out.Count, err = run.Count()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SolveDistributed runs the problem's distributed protocol with treedepth
// parameter d.
func SolveDistributed(g *graph.Graph, prob Problem, d int, opts congest.Options) (*Solution, error) {
	return Solve(Request{Graph: g, Problem: prob, D: d, Options: opts})
}

// SolveDistributedReliable is SolveDistributed with every node wrapped in
// the reliable-delivery adapter (see protocols.Reliable): the protocol
// tolerates the faults injected via opts.Injector at the cost of extra
// rounds. opts.BandwidthFactor must give the adapter's minimum frame budget
// (protocols.ReliableBandwidthFactor is the standard choice). When injected
// faults exceed the retry budget the error wraps protocols.ErrUnrecoverable.
func SolveDistributedReliable(g *graph.Graph, prob Problem, d int, opts congest.Options, rel protocols.ReliableConfig) (*Solution, error) {
	return Solve(Request{Graph: g, Problem: prob, D: d, Options: opts, Reliable: &rel})
}

// SolveSequential runs the problem centrally with Algorithm 1 over a DFS
// elimination tree (the baseline of the benchmark harness).
func SolveSequential(g *graph.Graph, prob Problem) (*Solution, error) {
	return Solve(Request{Graph: g, Problem: prob, Sequential: true})
}

// SolveSequentialForest is SolveSequential over a caller-supplied elimination
// forest — e.g. an exact-treedepth witness instead of the DFS heuristic.
func SolveSequentialForest(g *graph.Graph, prob Problem, forest *treedepth.Forest) (*Solution, error) {
	return Solve(Request{Graph: g, Problem: prob, Sequential: true, Forest: forest})
}

// CompileClosedFormula compiles a closed MSO formula text into a predicate
// via the generic engine.
func CompileClosedFormula(text string) (regular.Predicate, error) {
	f, err := mso.Parse(text)
	if err != nil {
		return nil, err
	}
	return msoauto.New(f, msoauto.Options{})
}
