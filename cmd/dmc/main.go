// Command dmc runs the distributed model checker on a graph instance:
//
//	gengraph -family bounded-td -n 64 -d 3 | dmc -problem acyclic -d 3
//	dmc -graph net.g -problem max-independent-set -d 3
//	dmc -graph net.g -formula "~ exists x:V,y:V,z:V . adj(x,y) & adj(y,z) & adj(z,x)" -d 3
//	dmc -list
//
// It prints the verdict/optimum/count, the CONGEST round count, message
// totals, and the maximum message width.
//
// With -exact-d, dmc first computes the exact treedepth of the input with
// the branch-and-bound solver (internal/treedepth), validates the witness
// elimination forest, and uses the verified optimum as the parameter d —
// so the protocol never aborts with LARGE TREEDEPTH and never wastes rounds
// on an overestimate. With -seq, the sequential run evaluates along the
// witness forest itself instead of the DFS heuristic:
//
//	gengraph -family grid -rows 3 -cols 5 | dmc -problem acyclic -exact-d
//
// With -trace, dmc additionally streams a round-level NDJSON event log of
// the CONGEST simulation (see congest.NDJSONTracer for the format), which
// cmd/trace summarizes into a per-phase round/bit table:
//
//	gengraph -family bounded-td -n 64 -d 3 | dmc -problem acyclic -d 3 -trace - | trace
//
// When -trace is "-" the event log goes to stdout and the human-readable
// report moves to stderr, so the two streams can be piped independently.
//
// With -faults, dmc injects seed-driven network chaos (message drop,
// duplication, reordering, node crash-restart) and wraps every node in the
// reliable-delivery ARQ adapter, which must still produce the fault-free
// answer:
//
//	gengraph -family bounded-td -n 64 -d 3 | dmc -problem acyclic -d 3 \
//	    -faults -fault-seed 7 -drop-rate 0.2 -dup-rate 0.1 -reorder-rate 0.1
//
// The same -fault-seed replays the same chaos bit-for-bit. If the faults
// exceed the adapter's retry budget, dmc exits nonzero with the offending
// edge and round. A -faults schedule whose every rate is zero is a no-op:
// dmc says so and runs the ordinary fault-free path (parallel delivery and
// all) instead of paying for the injector and the reliable adapter.
//
// Flag interactions are explicit: -workers implies -parallel on its own,
// and core.Request.Validate (shared with dmcd) rejects every CONGEST-only
// flag (-parallel, -workers, -seed, -faults, -trace) with -seq.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/treedepth"
)

func main() {
	if err := runArgs(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dmc:", err)
		os.Exit(1)
	}
}

// runArgs is the whole CLI with its streams injected, so tests can drive
// every flag combination in-process.
func runArgs(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	graphPath := fs.String("graph", "-", "graph file in edge-list format ('-' = stdin)")
	problem := fs.String("problem", "", "registered problem name (see -list)")
	formula := fs.String("formula", "", "closed MSO formula (generic engine)")
	d := fs.Int("d", 3, "treedepth parameter")
	exactD := fs.Bool("exact-d", false, "compute the exact treedepth with the branch-and-bound solver and use it as d (overrides -d)")
	seed := fs.Int64("seed", 0, "adversarial ID permutation seed (0 = identity)")
	list := fs.Bool("list", false, "list registered problems and exit")
	sequential := fs.Bool("seq", false, "run the sequential Algorithm 1 instead of the CONGEST protocol")
	tracePath := fs.String("trace", "", "write an NDJSON round-level trace here ('-' = stdout, report moves to stderr)")
	parallel := fs.Bool("parallel", false, "execute node programs on the worker pool (bit-identical to sequential; implied by -workers)")
	workers := fs.Int("workers", 0, "worker-pool size, implies -parallel (0 = GOMAXPROCS with -parallel)")
	faultsOn := fs.Bool("faults", false, "inject seed-driven network faults and wrap nodes in the reliable-delivery adapter")
	faultSeed := fs.Int64("fault-seed", 1, "fault-schedule seed (same seed = same chaos, bit-for-bit)")
	dropRate := fs.Float64("drop-rate", 0, "per-message drop probability with -faults")
	dupRate := fs.Float64("dup-rate", 0, "per-message duplication probability with -faults")
	reorderRate := fs.Float64("reorder-rate", 0, "per-message reorder probability with -faults")
	reorderWindow := fs.Int("reorder-window", 4, "maximum extra delivery delay in rounds with -faults")
	crashRate := fs.Float64("crash-rate", 0, "per-node per-round crash probability with -faults (outages of 1-4 rounds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *list {
		for _, p := range core.Problems() {
			fmt.Fprintf(stdout, "%-26s %s\n", p.Name, p.Description)
		}
		return nil
	}

	// -workers on its own turns the worker pool on.
	if *workers > 0 {
		*parallel = true
	}
	prob, err := core.ProblemFor(*problem, *formula)
	if err != nil {
		return flagError(err)
	}
	req := core.Request{
		Problem: prob, Sequential: *sequential, D: *d,
		Options: congest.Options{IDSeed: *seed, Parallel: *parallel, Workers: *workers},
	}
	// The trace stream's destination is attached after validation, so a
	// rejected invocation creates no trace file.
	var traceSink struct{ io.Writer }
	var tracer *congest.NDJSONTracer
	if *tracePath != "" {
		tracer = congest.NewNDJSONTracer(&traceSink)
		req.Options.Tracer = tracer
	}
	if *faultsOn {
		req.Faults = faults.Config{
			Seed: *faultSeed, DropRate: *dropRate, DupRate: *dupRate, ReorderRate: *reorderRate,
			ReorderWindow: *reorderWindow, CrashRate: *crashRate, MinOutage: 1, MaxOutage: 4,
		}
	}
	if err := req.Validate(); err != nil {
		return flagError(err)
	}

	g, err := loadGraph(*graphPath, stdin)
	if err != nil {
		return err
	}

	// The human-readable report goes to stdout, unless the trace stream
	// claims stdout for piping into cmd/trace.
	report := stdout
	if tracer != nil {
		traceSink.Writer = stdout
		if *tracePath == "-" {
			report = stderr
		} else {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			defer f.Close()
			traceSink.Writer = f
		}
	}

	fmt.Fprintf(report, "graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	if *exactD {
		td, forest, stats, err := treedepth.SolveExact(g, treedepth.SolveOptions{})
		if err != nil {
			return fmt.Errorf("exact treedepth: %w", err)
		}
		if err := treedepth.ValidateForest(g, forest, td); err != nil {
			return fmt.Errorf("exact treedepth: invalid witness: %w", err)
		}
		fmt.Fprintf(report, "treedepth: td=%d (verified optimal; %d branch nodes, %d cached sets)\n",
			td, stats.Nodes, stats.CacheEntries)
		req.D = td
		if *sequential {
			// The exact run already paid for an optimal elimination forest;
			// evaluate along it instead of the DFS heuristic.
			req.Forest = forest
		}
	}
	fmt.Fprintf(report, "problem: %s (d=%d)\n", prob.Name, req.D)

	switch {
	case *faultsOn && !req.Faulted():
		fmt.Fprintf(report, "faults: schedule is a no-op (all rates zero); running fault-free\n")
	case req.Faulted():
		fmt.Fprintf(report, "faults: %v (reliable delivery on)\n", req.Faults)
	}
	req.Graph = g
	sol, err := core.Solve(req)
	if tracer != nil {
		if ferr := tracer.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		if errors.Is(err, protocols.ErrUnrecoverable) {
			return fmt.Errorf("faults exceeded the retry budget (rerun with a lower -drop-rate or a different -fault-seed): %w", err)
		}
		return err
	}
	if sol.TdExceeded {
		fmt.Fprintf(report, "result: LARGE TREEDEPTH (td(G) > %d); rerun with a larger -d\n", req.D)
		return nil
	}
	printSolution(report, prob, sol)
	if *sequential {
		return nil
	}
	fmt.Fprintf(report, "congest: rounds=%d messages=%d bits=%d maxMsgBits=%d bandwidth=%d\n",
		sol.Stats.Rounds, sol.Stats.Messages, sol.Stats.Bits, sol.Stats.MaxMsgBits, sol.Stats.Bandwidth)
	if req.Faulted() {
		f := sol.Stats.Faults
		fmt.Fprintf(report, "faults: dropped=%d duplicated=%d delayed=%d lost=%d crashRounds=%d\n",
			f.Dropped, f.Duplicated, f.Delayed, f.Lost, f.CrashRounds)
		r := sol.Reliability
		fmt.Fprintf(report, "reliable: vrounds=%d chunks=%d retransmits=%d dupChunks=%d ackFrames=%d\n",
			r.VirtualRounds, r.Chunks, r.Retransmits, r.DupChunks, r.AckFrames)
	}
	return nil
}

// flagError respells a rejected request in flag syntax.
func flagError(err error) error {
	var fe *core.FieldError
	if errors.As(err, &fe) {
		return errors.New(fe.Spell(func(f string) string { return "-" + f }))
	}
	return err
}

func loadGraph(path string, stdin io.Reader) (*graph.Graph, error) {
	if path == "-" {
		return graph.ReadEdgeList(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

func printSolution(w io.Writer, prob core.Problem, sol *core.Solution) {
	switch prob.Kind {
	case core.KindDecision:
		fmt.Fprintf(w, "result: accepted=%v\n", sol.Accepted)
	case core.KindOptimization:
		if !sol.Found {
			fmt.Fprintln(w, "result: infeasible")
			return
		}
		fmt.Fprintf(w, "result: optimum weight=%d selected=%v\n", sol.Weight, sol.Selected)
	case core.KindCounting:
		fmt.Fprintf(w, "result: count=%d\n", sol.Count)
	}
}
