// Command dmcperf runs the performance ledger of package perf.
//
//	dmcperf -seed 1 -out run.json          every workload, end-to-end metrics
//	dmcperf -workload dist-dp -trace 1     one workload, per-layer metrics
//	dmcperf -repeat 5 -out run.json        five runs of each, with spreads
//	dmcperf -compare base.json new.json    judge new against base
//
// With -workload and no -repeat, the workload runs in this process and the
// last line of standard output is its result as one JSON object
// ({"correct", "attempted", "failed", "metrics"}). Otherwise every run is a
// child process (the command re-executes itself), so peak RSS and GC state
// are per run. The exit status is nonzero when any answer was wrong, and,
// with -compare, when any metric got worse beyond its bound or an error
// rate rose.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"repro/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Int("seconds", 20, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload")
	quick := fs.Bool("quick", false, "tiny inputs (smoke test)")
	corrupt := fs.Bool("corrupt", false, "corrupt every expected answer, to prove the answer checks fail")
	out := fs.String("out", "", "write the ledger (run.json) here")
	compare := fs.Bool("compare", false, "compare two ledgers: dmcperf -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dmcperf: -compare needs two ledger files")
			return 2
		}
		return compareLedgers(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *repeat < 1 || *secs < 1 {
		fmt.Fprintln(stderr, "dmcperf: bad arguments; see -help")
		return 2
	}
	workloads := perf.Workloads
	if *workload != "" {
		w, err := perf.Lookup(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "dmcperf:", err)
			return 2
		}
		workloads = []perf.Workload{w}
	}
	opt := perf.Options{Seed: *seed, Window: time.Duration(*secs) * time.Second, Trace: *trace == 1, Quick: *quick, Corrupt: *corrupt}
	ledger := perf.NewLedger(*seed, *secs, opt.Trace, *repeat, *quick)

	if len(workloads) == 1 && *repeat == 1 {
		res, err := workloads[0].Run(opt, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "dmcperf:", err)
			return 2
		}
		printResult(stdout, workloads[0].Name, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "dmcperf:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", line)
		ledger.Add(workloads[0].Name, res)
		return finish(ledger, *out, stderr)
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "dmcperf:", err)
		return 2
	}
	for i := 0; i < *repeat; i++ {
		for _, w := range workloads {
			res, err := runChild(self, w.Name, opt, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "dmcperf: %s: %v\n", w.Name, err)
				return 2
			}
			printResult(stdout, w.Name, res)
			ledger.Add(w.Name, res)
		}
	}
	printSummary(stdout, ledger)
	return finish(ledger, *out, stderr)
}

// runChild runs one workload in a child process of this binary and parses
// the result from its last output line.
func runChild(self, workload string, opt perf.Options, stderr io.Writer) (*perf.Result, error) {
	trace := 0
	if opt.Trace {
		trace = 1
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(opt.Seed, 10),
		"-seconds", strconv.Itoa(int(opt.Window/time.Second)), "-trace", strconv.Itoa(trace),
		"-quick="+strconv.FormatBool(opt.Quick), "-corrupt="+strconv.FormatBool(opt.Corrupt))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	if err != nil && !(errors.As(err, &exitErr) && exitErr.ExitCode() == 1) {
		return nil, err // exit 1 is a result with wrong answers; anything else is a crash
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res perf.Result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// printResult prints a run's metrics, one per line: workload, name, value,
// unit.
func printResult(w io.Writer, workload string, res *perf.Result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(w, "%-12s %-34s %16.6f %s\n", workload, name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "%-12s %-34s %16d/%d failed, correct=%v\n", workload, "answers", res.Failed, res.Attempted, res.Correct)
}

// printSummary prints every metric's median and quartiles over the runs.
func printSummary(w io.Writer, l *perf.Ledger) {
	fmt.Fprintf(w, "\nsummary: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %d s window, %d run(s) each\n",
		l.Meta.Commit, l.Meta.GoVersion, l.Meta.NumCPU, l.Meta.GOMAXPROCS, l.Meta.Seed, l.Meta.Seconds, l.Meta.Repeat)
	for _, wl := range perf.Workloads {
		rec := l.Workloads[wl.Name]
		if rec == nil {
			continue
		}
		names := make([]string, 0, len(rec.Metrics))
		for name := range rec.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := rec.Metrics[name]
			fmt.Fprintf(w, "%-12s %-34s median %14.6f  p25 %14.6f  p75 %14.6f %s (n=%d)\n",
				wl.Name, name, s.Median, s.P25, s.P75, s.Unit, s.N)
		}
		fmt.Fprintf(w, "%-12s %-34s %.6f (%d/%d)\n", wl.Name, "error_rate", rec.ErrorRate(), rec.Failed, rec.Attempted)
	}
}

// finish writes the ledger when asked and turns wrong answers into exit
// status 1.
func finish(l *perf.Ledger, out string, stderr io.Writer) int {
	if out != "" {
		data, err := json.MarshalIndent(l, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "dmcperf: write ledger:", err)
			return 2
		}
	}
	for name, rec := range l.Workloads {
		if !rec.Correct {
			fmt.Fprintf(stderr, "dmcperf: %s returned wrong answers\n", name)
			return 1
		}
	}
	return 0
}

// compareLedgers prints the verdict on every (workload, end-to-end metric)
// pair and fails on any regression.
func compareLedgers(basePath, newPath string, stdout, stderr io.Writer) int {
	base, err := readLedger(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "dmcperf:", err)
		return 2
	}
	next, err := readLedger(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "dmcperf:", err)
		return 2
	}
	cmp, errorRose := perf.Compare(base, next)
	status := 0
	for _, c := range cmp {
		fmt.Fprintln(stdout, perf.FormatComparison(c))
		if c.Verdict == perf.Worse {
			status = 1
		}
	}
	for _, name := range errorRose {
		fmt.Fprintf(stdout, "%-12s error_rate rose: %.6f -> %.6f\n", name,
			base.Workloads[name].ErrorRate(), next.Workloads[name].ErrorRate())
		status = 1
	}
	return status
}

func readLedger(path string) (*perf.Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l perf.Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}
