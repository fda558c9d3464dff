package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/perf"
)

// lastLine parses the JSON result line a single-workload run ends with.
func lastLine(t *testing.T, out []byte) perf.Result {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res perf.Result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestSingleWorkloadPrintsResultLine(t *testing.T) {
	var out bytes.Buffer
	ledger := filepath.Join(t.TempDir(), "run.json")
	if code := run([]string{"-workload", "seq-dp", "-quick", "-seconds", "1", "-out", ledger}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	res := lastLine(t, out.Bytes())
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(perf.EndToEnd) {
		t.Errorf("result %+v", res)
	}
	data, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	var l perf.Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatal(err)
	}
	if l.Meta.GoVersion == "" || l.Meta.NumCPU == 0 || l.Workloads["seq-dp"] == nil || l.Workloads["seq-dp"].Metrics["setup_s"].N != 1 {
		t.Errorf("ledger %s", data)
	}
}

func TestCorruptedAnswersExitNonzero(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-workload", "dist-dp", "-quick", "-seconds", "1", "-corrupt"}, &out, io.Discard); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if res := lastLine(t, out.Bytes()); res.Correct || res.Failed == 0 {
		t.Errorf("corrupted run reported %+v", res)
	}
}

func TestCompareExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64) string {
		l := perf.NewLedger(1, 10, false, 3, false)
		for _, v := range []float64{latency - 1, latency, latency + 1} {
			l.Add("dist-elim", &perf.Result{Correct: true, Attempted: 10, Metrics: map[string]perf.Value{
				"latency_ms_p50": {Value: v, Unit: "ms"},
			}})
		}
		data, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 100), write("same.json", 103), write("slow.json", 150)
	if code := run([]string{"-compare", base, same}, io.Discard, io.Discard); code != 0 {
		t.Errorf("within bound: exit %d, want 0", code)
	}
	if code := run([]string{"-compare", base, slow}, io.Discard, io.Discard); code != 1 {
		t.Errorf("50%% slower: exit %d, want 1", code)
	}
}
