// Command bench regenerates the full evaluation suite of EXPERIMENTS.md:
// every table (T1–T7) and figure series (F1–F3), printed as aligned text or
// CSV.
//
//	bench                # run everything, full sweeps
//	bench -quick         # smaller sweeps (the test-suite configuration)
//	bench -only T1,F2    # a subset
//	bench -csv           # machine-readable output
//
// The S1 engine-scaling and S2 DP-algebra scenarios can additionally
// serialize their reports:
//
//	bench -only S1 -scaling-out BENCH_congest.json
//	bench -only S2 -dp-out BENCH_dp.json
//	bench -only S3 -faults-out BENCH_faults.json
//	bench -only S6 -td-out BENCH_td.json
//
// Each sweep runs once; the table and the JSON document come from the same
// measurements, and the command exits nonzero if any parallel run diverges
// from its sequential twin (S1), any cached run diverges from its uncached
// reference (S2), any fault-injected run reports a wrong verdict or an
// unrecoverable failure at a drop rate the retry budget must mask (S3), or
// any treedepth run returns an invalid witness or disagrees with the naive
// oracle (S6).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run is the whole command with its arguments and table output injected, so
// tests can drive it in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "smaller sweeps")
	only := fs.String("only", "", "comma-separated experiment IDs (default: all)")
	csv := fs.Bool("csv", false, "CSV output")
	scalingOut := fs.String("scaling-out", "", "write the S1 scaling report as JSON to this path")
	scalingSizes := fs.String("scaling-sizes", "", "comma-separated n values for the S1 sweep (default: the built-in sizes)")
	dpOut := fs.String("dp-out", "", "write the S2 DP-algebra report as JSON to this path")
	faultsOut := fs.String("faults-out", "", "write the S3 fault-injection report as JSON to this path")
	tdOut := fs.String("td-out", "", "write the S6 exact-treedepth report as JSON to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected sweeps to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile (taken after all sweeps) to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "bench: cpuprofile close:", cerr)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
				return
			}
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile close:", err)
			}
		}()
	}

	var sizes []int
	if *scalingSizes != "" {
		for _, s := range strings.Split(*scalingSizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("invalid -scaling-sizes entry %q", s)
			}
			sizes = append(sizes, n)
		}
	}

	// When a JSON report is requested, run that sweep exactly once and reuse
	// the measurements for both outputs. S1 also runs here when its sizes
	// are given, so the table shows the requested sweep.
	var scalingRep *experiments.ScalingReport
	if *scalingOut != "" || sizes != nil {
		rep, err := experiments.ScalingSweepSizes(*quick, sizes)
		if rep != nil && *scalingOut != "" {
			// Write the report even on divergence so the artifact shows which
			// runs failed; the error still fails the command.
			if werr := writeJSON(*scalingOut, rep); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		scalingRep = rep
	}
	var dpRep *experiments.DPReport
	if *dpOut != "" {
		rep, err := experiments.DPSweep(*quick)
		if rep != nil {
			// Write the report even on divergence so the artifact shows which
			// runs failed; the error still fails the command.
			if werr := writeJSON(*dpOut, rep); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		dpRep = rep
	}
	var faultsRep *experiments.FaultReport
	if *faultsOut != "" {
		rep, err := experiments.FaultSweep(*quick)
		if rep != nil {
			// Write the report even on divergence so the artifact shows which
			// runs failed; the error still fails the command.
			if werr := writeJSON(*faultsOut, rep); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		faultsRep = rep
	}
	var tdRep *experiments.TDReport
	if *tdOut != "" {
		rep, err := experiments.TDSweep(*quick)
		if rep != nil {
			// Write the report even on divergence so the artifact shows which
			// runs failed; the error still fails the command.
			if werr := writeJSON(*tdOut, rep); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		tdRep = rep
	}

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Lookup(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		start := time.Now()
		var tab *experiments.Table
		var err error
		switch {
		case e.ID == "S1" && scalingRep != nil:
			tab = experiments.ScalingTable(scalingRep)
		case e.ID == "S2" && dpRep != nil:
			tab = experiments.DPTable(dpRep)
		case e.ID == "S3" && faultsRep != nil:
			tab = experiments.FaultTable(faultsRep)
		case e.ID == "S6" && tdRep != nil:
			tab = experiments.TDTable(tdRep)
		default:
			tab, err = e.Run(*quick)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s\n%s\n", e.ID, tab.CSV())
		} else {
			fmt.Fprintln(stdout, tab.Render())
			fmt.Fprintf(stdout, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	return nil
}
