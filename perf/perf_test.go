package perf

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bf
}

func quickOptions() Options {
	return Options{Seed: 1, Window: 100 * time.Millisecond, Quick: true}
}

// TestDeclarationsMatchBenchmarkFile pins the Go metric and workload tables
// to BENCHMARK.json.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perf has %d", len(bf.Workloads), len(Workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != Workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, perf %q", i, w.Name, Workloads[i].Name)
		}
	}
	if len(bf.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perf has %d", len(bf.EndToEnd), len(EndToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m != EndToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, perf %+v", i, m, EndToEnd[i])
		}
	}
	if len(bf.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perf has %d", len(bf.PerLayer), len(PerLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != PerLayer[i].Name || m.Unit != PerLayer[i].Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], perf %s [%s]", i, m.Name, m.Unit, PerLayer[i].Name, PerLayer[i].Unit)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json declares, with
// the declared units, and that every answer is right.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			opt := quickOptions()
			opt.Trace = trace
			res, err := w.Run(opt, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			declared := bf.EndToEnd
			if trace {
				declared = bf.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, declared %q", w.Name, trace, m.Name, v.Unit, m.Unit)
				case !trace && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
		}
	}
}

// TestCorruptedOracleFails proves the answer checks are live: with every
// expected answer perturbed, every workload reports failures and a wrong
// result.
func TestCorruptedOracleFails(t *testing.T) {
	for _, w := range Workloads {
		opt := quickOptions()
		opt.Corrupt = true
		res, err := w.Run(opt, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted oracle gave correct=%v failed=%d/%d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestTracedSolveIsTransparent checks that the traced pipeline returns the
// answers and CONGEST counters of the repository's one-shot solvers on every
// batch workload's input.
func TestTracedSolveIsTransparent(t *testing.T) {
	specs := []struct {
		name     string
		problem  string
		n        int
		weighted bool
		mode     solveMode
	}{
		{"dist-elim", "acyclic", 400, false, modeDist},
		{"dist-dp", "max-independent-set", 300, true, modeDist},
		{"dist-faults", "acyclic", 60, false, modeReliable},
		{"seq-dp", "max-independent-set", 1000, true, modeSeq},
	}
	for _, s := range specs {
		prob, err := core.Lookup(s.problem)
		if err != nil {
			t.Fatal(err)
		}
		_, g, _, err := boundedTreedepthText(s.n, s.weighted, 3)
		if err != nil {
			t.Fatal(err)
		}
		j := &job{name: s.name, g: g, prob: prob, mode: s.mode, faults: faultSchedule(3)}
		want, err := j.solve(j.options(true, 2))
		if err != nil {
			t.Fatalf("%s: one-shot solve: %v", s.name, err)
		}
		var l layers
		got, err := j.traced(j.options(false, 1), &l)
		if err != nil {
			t.Fatalf("%s: traced solve: %v", s.name, err)
		}
		if !sameSolution(want, got) {
			t.Errorf("%s: traced solve %+v differs from one-shot %+v", s.name, got, want)
		}
		if s.mode != modeSeq && (l.calls == 0 || l.stats.Rounds != want.Stats.Rounds) {
			t.Errorf("%s: traced %d node calls over %d rounds, one-shot %d rounds", s.name, l.calls, l.stats.Rounds, want.Stats.Rounds)
		}
		if cov := l.covered().Seconds() / l.wall.Seconds(); cov < 0.8 || cov > 1.05 {
			t.Errorf("%s: layers cover %.3f of the traced wall time", s.name, cov)
		}
	}
}

// TestIndependentSetCheck exercises the selection check on hand-made
// solutions.
func TestIndependentSetCheck(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.SetVertexWeight(0, 2)
	g.SetVertexWeight(2, 5)
	prob, err := core.Lookup("max-independent-set")
	if err != nil {
		t.Fatal(err)
	}
	j := &job{g: g, prob: prob, mode: modeSeq}
	sol, err := j.solve(j.options(false, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !independentSetOfWeight(g, sol) || sol.Weight != 7 {
		t.Fatalf("optimum {0,2} of weight 7 rejected: %+v", sol)
	}
	sol.Selected.Add(1)
	if independentSetOfWeight(g, sol) {
		t.Error("a set containing edge {0,1} passed")
	}
	sol.Selected.Remove(1)
	sol.Weight = 6
	if independentSetOfWeight(g, sol) {
		t.Error("a set whose weight differs from the reported optimum passed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.25, 2}, {0.5, 3}, {0.75, 4}, {0.99, 5}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}
