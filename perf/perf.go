// Package perf is the performance ledger of the paper's pipeline: Algorithm 2
// elimination, Lemma 5.3 bags, Theorem 6.1 tables, then a verdict or a
// top-down selection. It times the real protocols, the sequential
// Algorithm 1, the fault-tolerant path and the dmcd daemon from outside,
// through exported functions of the repro packages only, and checks every
// answer it times against an independent oracle.
//
// A run executes one workload: it generates the workload's inputs from a
// seed, serializes them to edge-list text (the only form the program under
// test ever sees), computes the expected answers, sets up, and measures for
// a fixed window. With Options.Trace unset it reports the end-to-end metrics
// of EndToEnd; with it set it also runs the traced pass and reports the
// per-layer metrics of PerLayer. cmd/dmcperf is the command-line front end.
package perf

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// Options configure one workload run.
type Options struct {
	// Seed drives every generated input; equal seeds give equal inputs.
	Seed int64
	// Window is the measured window of the run.
	Window time.Duration
	// Trace selects the per-layer pass instead of the end-to-end metrics.
	Trace bool
	// Quick shrinks every input to a few hundred vertices (smoke tests).
	Quick bool
	// Corrupt perturbs every expected answer, so every answer check must
	// fail; it exists to prove the checks are live.
	Corrupt bool
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one run: how many operations were attempted and
// failed (failed, refused or wrong), whether every answer was right, and
// the metrics.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Metric declares one reported metric. Better and Bound apply to end-to-end
// metrics only: Bound is the share of the baseline median by which the
// metric may get worse before a change counts as a regression.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd lists the metrics a user of the system sees, reported by every
// workload. For batch workloads one request is one solve.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// PerLayer lists the per-layer metrics of the traced pass. A layer that a
// workload does not run reports 0.
var PerLayer = perLayer()

func perLayer() []Metric {
	ms := []Metric{
		{Name: "graph.ingest_s", Unit: "s"},
		{Name: "congest.sim_build_s", Unit: "s"},
		{Name: "congest.init_s", Unit: "s"},
		{Name: "congest.route_s", Unit: "s"},
		{Name: "congest.route_ns_per_msg", Unit: "ns/msg"},
		{Name: "congest.messages", Unit: "count"},
		{Name: "congest.rounds", Unit: "count"},
		{Name: "congest.bits", Unit: "bit"},
		{Name: "congest.parallel_speedup", Unit: "ratio"},
	}
	for _, ph := range phases {
		ms = append(ms, Metric{Name: "protocols.compute_s." + ph, Unit: "s"})
	}
	for _, ph := range phases {
		ms = append(ms, Metric{Name: "protocols.sent_bits." + ph, Unit: "bit"})
	}
	return append(ms, []Metric{
		{Name: "protocols.node_calls", Unit: "count"},
		{Name: "protocols.assemble_s", Unit: "s"},
		{Name: "protocols.reliable.chunks", Unit: "count"},
		{Name: "protocols.reliable.retransmits", Unit: "count"},
		{Name: "protocols.reliable.ack_frames", Unit: "count"},
		{Name: "faults.dropped", Unit: "count"},
		{Name: "faults.duplicated", Unit: "count"},
		{Name: "faults.delayed", Unit: "count"},
		{Name: "regular.compose_hits", Unit: "count"},
		{Name: "regular.compose_misses", Unit: "count"},
		{Name: "regular.compose_hit_rate", Unit: "frac"},
		{Name: "regular.classes", Unit: "count"},
		{Name: "regular.decode_misses", Unit: "count"},
		{Name: "regular.pred_s", Unit: "s"},
		{Name: "treedepth.forest_s", Unit: "s"},
		{Name: "seq.build_s", Unit: "s"},
		{Name: "seq.dp_s", Unit: "s"},
		{Name: "msoauto.compile_s", Unit: "s"},
		{Name: "serve.solve_ms_p50", Unit: "ms"},
		{Name: "serve.overhead_ms_p50", Unit: "ms"},
		{Name: "serve.overhead_ms_p99", Unit: "ms"},
		{Name: "serve.generator_late_ms_p99", Unit: "ms"},
		{Name: "serve.rejected", Unit: "count"},
		{Name: "serve.timeouts", Unit: "count"},
		{Name: "runtime.alloc_mb_per_solve", Unit: "MB"},
		{Name: "runtime.gc_cycles_per_solve", Unit: "count"},
		{Name: "runtime.gc_cpu_s_per_solve", Unit: "s"},
		{Name: "trace.overhead_frac", Unit: "frac"},
		{Name: "trace.coverage_frac", Unit: "frac"},
	}...)
}

// Workload is one named input set of the benchmark; BENCHMARK.json gives
// the rationale of each.
type Workload struct {
	Name string
	run  func(r *run) error
}

// Workloads lists the benchmark's workloads in the order a full pass runs
// them.
var Workloads = []Workload{
	{Name: "dist-elim", run: distElim},
	{Name: "dist-dp", run: distDP},
	{Name: "seq-dp", run: seqDP},
	{Name: "dist-faults", run: distFaults},
	{Name: "serve-mix", run: serveMix},
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("perf: unknown workload %q", name)
}

// Run executes one run of the workload. Answer failures are counted in the
// result; the error reports runs that could not be carried out at all
// (input generation, oracle, or set-up failures). Progress and every failed
// check are logged to log.
func (w Workload) Run(opt Options, log io.Writer) (*Result, error) {
	r := &run{opt: opt, log: log, values: map[string]float64{}, workers: runtime.NumCPU()}
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res := &Result{Correct: !r.wrong, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]Value{}}
	declared := EndToEnd
	if opt.Trace {
		declared = PerLayer
	}
	for _, m := range declared {
		res.Metrics[m.Name] = Value{Value: r.values[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// run is the state of one workload run: options, metric values and the
// answer-check tally.
type run struct {
	opt     Options
	log     io.Writer
	workers int // CONGEST workers per solve: one per CPU

	values    map[string]float64
	attempted int
	failed    int
	wrong     bool
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// check counts one attempted operation; a false ok counts it as failed and
// wrong and logs why.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.wrong = true
		fmt.Fprintf(r.log, "check failed: "+format+"\n", args...)
	}
}

// refuse counts one attempted operation that the system refused or timed
// out on: a failure, but not a wrong answer.
func (r *run) refuse(format string, args ...any) {
	r.attempted++
	r.failed++
	fmt.Fprintf(r.log, "refused: "+format+"\n", args...)
}

// setups is the number of times a run sets up; setup_s is their median.
const setups = 3

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
