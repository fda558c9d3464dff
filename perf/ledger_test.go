package perf

import "testing"

// ledgerOf builds a one-workload ledger whose end-to-end metrics take the
// given per-run values.
func ledgerOf(attempted, failed int, values map[string][]float64) *Ledger {
	l := NewLedger(1, 10, false, 1, false)
	for i := 0; ; i++ {
		res := &Result{Correct: true, Metrics: map[string]Value{}}
		more := false
		for name, vs := range values {
			if i < len(vs) {
				res.Metrics[name] = Value{Value: vs[i]}
				more = true
			}
		}
		if !more {
			break
		}
		l.Add("w", res)
	}
	l.Workloads["w"].Attempted, l.Workloads["w"].Failed = attempted, failed
	return l
}

func verdicts(cmp []Comparison) map[string]string {
	out := map[string]string{}
	for _, c := range cmp {
		out[c.Metric] = c.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := ledgerOf(100, 0, map[string][]float64{
		"latency_ms_p50": {100, 101, 99},
		"latency_ms_p99": {200, 202, 198},
		"throughput_qps": {50, 51, 49},
		"peak_rss_mb":    {300, 301, 299},
		"setup_s":        {1, 1.01, 0.99},
	})
	next := ledgerOf(100, 0, map[string][]float64{
		"latency_ms_p50": {135, 136, 134}, // +35% against a 25% bound
		"latency_ms_p99": {210, 212, 208}, // +5% against 25%
		"throughput_qps": {70, 71, 69},    // +40% against 25%, higher is better
		"peak_rss_mb":    {200, 400, 300}, // IQR 67% of the median: unresolved
		"setup_s":        {0.5, 0.51, 0.49},
	})
	got := verdicts(func() []Comparison { c, _ := Compare(base, next); return c }())
	want := map[string]string{
		"latency_ms_p50": Worse,
		"latency_ms_p99": Within,
		"throughput_qps": Better,
		"peak_rss_mb":    Unresolved,
		"setup_s":        Better,
	}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: verdict %q, want %q", m, got[m], v)
		}
	}
}

func TestCompareWideSpreadStillBetterWhenEveryRunWins(t *testing.T) {
	base := ledgerOf(10, 0, map[string][]float64{"latency_ms_p50": {100, 140, 180}})
	next := ledgerOf(10, 0, map[string][]float64{"latency_ms_p50": {40, 60, 90}})
	cmp, _ := Compare(base, next)
	if len(cmp) != 1 || cmp[0].Verdict != Better {
		t.Fatalf("got %+v, want one %q verdict", cmp, Better)
	}
}

func TestCompareNeedsRepeats(t *testing.T) {
	base := ledgerOf(10, 0, map[string][]float64{"latency_ms_p50": {100}})
	next := ledgerOf(10, 0, map[string][]float64{"latency_ms_p50": {200}})
	if cmp, _ := Compare(base, next); len(cmp) != 1 || cmp[0].Verdict != Unresolved {
		t.Fatalf("single runs: got %+v, want one %q verdict", cmp, Unresolved)
	}
}

func TestCompareErrorRate(t *testing.T) {
	base := ledgerOf(100, 0, map[string][]float64{"setup_s": {1}})
	next := ledgerOf(100, 1, map[string][]float64{"setup_s": {1}})
	if _, rose := Compare(base, next); len(rose) != 1 || rose[0] != "w" {
		t.Errorf("error rate 0 -> 1%%: rose = %v, want [w]", rose)
	}
	if _, rose := Compare(next, base); len(rose) != 0 {
		t.Errorf("error rate 1%% -> 0: rose = %v, want none", rose)
	}
}

func TestLedgerSummaries(t *testing.T) {
	l := ledgerOf(0, 0, map[string][]float64{"setup_s": {4, 1, 3, 2}})
	s := l.Workloads["w"].Metrics["setup_s"]
	if s.N != 4 || s.P25 != 1 || s.Median != 2 || s.P75 != 3 {
		t.Errorf("summary %+v, want n=4 p25=1 median=2 p75=3", s)
	}
}
