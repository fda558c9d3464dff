// Package dmc (distributed model checking) is the public API of the
// reproduction of "Distributed Model Checking on Graphs of Bounded
// Treedepth" (Fomin, Fraigniaud, Montealegre, Rapaport, Todinca; PODC 2024).
//
// It decides, optimizes, verifies, and counts MSO-expressible graph
// properties on networks of bounded treedepth, in a simulated CONGEST model
// whose round count depends only on the treedepth parameter d and the
// formula — never on the network size:
//
//	g := dmc.NewGraph(5)
//	g.MustAddEdge(0, 1) // ... build the network
//	res, err := dmc.CheckFormula(g, "~ exists x:V,y:V,z:V . adj(x,y) & adj(y,z) & adj(z,x)", dmc.Options{D: 3})
//
// Three engines are available: the naive oracle (package mso, exponential,
// for ground truth), hand-compiled regular predicates (package predicates,
// fast), and the generic MSO compiler (package msoauto). All three plug into
// the same sequential Algorithm 1 driver and the same distributed protocol.
//
// The facade is a thin layer over core.Request: Check, Optimize, Count,
// CheckMarked and CheckFormula each build a request whose problem returns
// the caller's predicate and run it through core.Solve, the entry point
// cmd/dmc and the dmcd daemon use too. core.Solve validates the request, so
// an Options.D below 1 is an error.
package dmc

import (
	"repro/internal/certify"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/expansion"
	"repro/internal/graph"
	"repro/internal/mso"
	"repro/internal/msoauto"
	"repro/internal/protocols"
	"repro/internal/regular"
	"repro/internal/regular/predicates"
)

// Graph is the network/input graph type (vertices 0..n-1, labeled and
// weighted edges and vertices).
type Graph = graph.Graph

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// Predicate is a regular graph predicate in the sense of Definition 4.1;
// obtain instances from the predicate constructors below or compile an MSO
// formula with CompileFormula.
type Predicate = regular.Predicate

// Options configure a distributed run.
type Options struct {
	// D is the treedepth parameter d: the protocol either solves the
	// problem or reports td(G) > D. Required (>= 1).
	D int
	// IDSeed permutes node identifiers adversarially (0 = identity).
	IDSeed int64
	// BandwidthFactor is c in the B = c*ceil(log2 n) CONGEST bandwidth
	// (0 = default).
	BandwidthFactor int
	// Maximize selects the optimization direction (Optimize/CheckMarked).
	Maximize bool
}

func (o Options) congest() congest.Options {
	return congest.Options{IDSeed: o.IDSeed, BandwidthFactor: o.BandwidthFactor}
}

// Stats is the CONGEST cost of a run.
type Stats = congest.Stats

// Result is the outcome of a distributed run: TdExceeded reports "large
// treedepth" (td(G) > D, Theorem 6.1's second outcome; all other fields are
// meaningless when set), Accepted the decision/verification verdict,
// Found/Weight/Selected the optimum (vertex indices or edge IDs, per the
// predicate's kind), Count the counting outcome, and Stats the CONGEST cost.
type Result = core.Solution

// problem wraps the caller's predicate as a core problem of the given kind.
func problem(pred Predicate, kind core.Kind) core.Problem {
	return core.Problem{Kind: kind, Build: func() (regular.Predicate, error) { return pred, nil }}
}

// solve runs prob through core.Solve, the one entry point to a Theorem 6.1
// run.
func solve(g *Graph, prob core.Problem, opts Options) (*Result, error) {
	prob.Maximize = opts.Maximize
	return core.Solve(core.Request{Graph: g, Problem: prob, D: opts.D, Options: opts.congest()})
}

// Check decides a closed predicate on g in O(2^2d) CONGEST rounds
// (Theorem 6.1, decision).
func Check(g *Graph, pred Predicate, opts Options) (*Result, error) {
	return solve(g, problem(pred, core.KindDecision), opts)
}

// Optimize solves maxφ/minφ for a predicate with a free set variable and
// selects an optimal solution (each node learns its membership); Theorem
// 6.1, optimization.
func Optimize(g *Graph, pred Predicate, opts Options) (*Result, error) {
	return solve(g, problem(pred, core.KindOptimization), opts)
}

// Count counts the satisfying assignments of the predicate's free set
// variable (Section 6, counting).
func Count(g *Graph, pred Predicate, opts Options) (*Result, error) {
	return solve(g, problem(pred, core.KindCounting), opts)
}

// MarkLabel is the label naming the marked set for CheckMarked.
const MarkLabel = protocols.MarkLabel

// CheckMarked solves optmarkedφ (Section 6): is the set marked with
// MarkLabel an optimal solution of the predicate?
func CheckMarked(g *Graph, pred Predicate, opts Options) (*Result, error) {
	return solve(g, problem(pred, core.KindCheckMarked), opts)
}

// CheckFormula parses a closed MSO formula in the textual syntax of
// internal/mso and decides it via the generic engine.
func CheckFormula(g *Graph, formula string, opts Options) (*Result, error) {
	prob, err := core.ProblemFor("", formula)
	if err != nil {
		return nil, err
	}
	return solve(g, prob, opts)
}

// CompileFormula compiles an MSO formula (optionally with a free set
// variable) into a Predicate usable with any driver. kind must be
// mso.KindVertexSet or mso.KindEdgeSet when freeSetVar is nonempty.
func CompileFormula(f mso.Formula, freeSetVar string, kind mso.VarKind) (Predicate, error) {
	return msoauto.New(f, msoauto.Options{FreeSetVar: freeSetVar, FreeSetKind: kind})
}

// HFreeResult reports the Corollary 7.3 outcome.
type HFreeResult = expansion.HFreeResult

// HFree decides H-freeness of a bounded-expansion network in O(log n)
// rounds (Corollary 7.3): distributed low-treedepth decomposition plus one
// Theorem 6.1 run per part-subset. degCap bounds the peeling degree (use at
// least four times the class's degeneracy).
func HFree(g, h *Graph, degCap int, opts Options) (*HFreeResult, error) {
	return expansion.HFreeDistributed(g, h, degCap, opts.congest())
}

// --- predicate constructors (hand-compiled engines) ---

// IndependentSet is φ(S) = "S is independent" (use with Optimize, maximize).
func IndependentSet() Predicate { return predicates.IndependentSet{} }

// VertexCover is φ(S) = "S covers every edge" (minimize).
func VertexCover() Predicate { return predicates.VertexCover{} }

// DominatingSet is φ(S) = "S dominates every vertex" (minimize).
func DominatingSet() Predicate { return predicates.DominatingSet{} }

// RedBlueDominatingSet is the paper's labeled example: blue-only S
// dominating every red vertex (minimize).
func RedBlueDominatingSet() Predicate {
	return predicates.DominatingSet{DominateLabel: "red", MemberLabel: "blue"}
}

// FeedbackVertexSet is φ(S) = "G - S is acyclic" (minimize).
func FeedbackVertexSet() Predicate { return predicates.FeedbackVertexSet{} }

// Acyclic is the closed predicate "G has no cycle".
func Acyclic() Predicate { return predicates.Acyclicity{} }

// Connected is the closed predicate "G is connected".
func Connected() Predicate { return predicates.Connectivity{} }

// KColorable is the closed predicate "G is k-colorable"; its negation for
// k = 3 is the paper's running example.
func KColorable(k int) Predicate { return predicates.KColorability{K: k} }

// SpanningTree is φ(S) over edge sets = "S is a spanning tree"; with edge
// weights and minimization this is distributed MST.
func SpanningTree() Predicate { return predicates.SpanningTree{} }

// Matching is φ(S) over edge sets = "S is a matching" (maximize).
func Matching() Predicate { return predicates.Matching{} }

// PerfectMatching is φ(S) = "S is a perfect matching" (count for #PM).
func PerfectMatching() Predicate { return predicates.Matching{Perfect: true} }

// Triangles is φ(X) = "X spans a triangle" (count for #triangles).
func Triangles() Predicate { return predicates.Triangles{} }

// SteinerTree is φ(S) over edge sets = "S is an acyclic set connecting all
// 'terminal'-labeled vertices" (minimize for minimum Steiner tree).
func SteinerTree() Predicate { return predicates.SteinerTree{} }

// SteinerTerminalLabel is the vertex label marking Steiner terminals.
const SteinerTerminalLabel = predicates.TerminalLabel

// HamiltonianCycle is φ(S) over edge sets = "S is a Hamiltonian cycle"
// (Decide for Hamiltonicity, Count for the number of cycles, minimize for
// the TSP variant).
func HamiltonianCycle() Predicate { return predicates.HamiltonianCycle{} }

// HSubgraph is the closed predicate "G contains H as a subgraph".
func HSubgraph(h *Graph) (Predicate, error) { return predicates.NewHSubgraph(h) }

// Certificate is a proof-labeling-scheme label (see Certify).
type Certificate = certify.Certificate

// Certify produces the Bousquet–Feuilloley–Pierron-style certificates for a
// closed predicate: per-node labels that a one-round verifier checks
// locally. VerifyCertificates runs that verifier.
func Certify(g *Graph, d int, pred Predicate) ([]Certificate, error) {
	return certify.Prove(g, d, pred)
}

// VerifyCertificates runs the one-round certification verifier; it returns
// the global verdict and the rejecting vertices.
func VerifyCertificates(g *Graph, d int, pred Predicate, certs []Certificate) (bool, []int) {
	return certify.Verify(g, d, pred, certs)
}

// VerifyCertificatesDistributed runs the certification verifier as an
// actual CONGEST protocol (one streamed certificate exchange plus local
// checks) and reports the verdict with the exchange's round cost.
func VerifyCertificatesDistributed(g *Graph, d int, pred Predicate, certs []Certificate) (bool, Stats, error) {
	return certify.VerifyDistributed(g, d, pred, certs, congest.Options{})
}
