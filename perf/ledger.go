package perf

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
)

// Ledger is the run.json document: run metadata, and per workload the
// answer tally and every metric's spread over the repeated runs.
type Ledger struct {
	Meta      Meta                       `json:"meta"`
	Workloads map[string]*WorkloadRecord `json:"workloads"`
}

// Meta records what was measured and where.
type Meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Repeat     int    `json:"repeat"`
	Quick      bool   `json:"quick,omitempty"`
}

// WorkloadRecord aggregates one workload's runs.
type WorkloadRecord struct {
	Runs      int                 `json:"runs"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Correct   bool                `json:"correct"`
	Metrics   map[string]*Summary `json:"metrics"`
}

// Summary is one metric over a workload's runs.
type Summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	Values []float64 `json:"values"`
}

// NewLedger starts a ledger with this process's metadata.
func NewLedger(seed int64, seconds int, trace bool, repeat int, quick bool) *Ledger {
	return &Ledger{
		Meta: Meta{
			Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Trace: trace,
			Repeat: repeat, Quick: quick,
		},
		Workloads: map[string]*WorkloadRecord{},
	}
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// Add folds one run's result into the workload's record.
func (l *Ledger) Add(workload string, res *Result) {
	rec := l.Workloads[workload]
	if rec == nil {
		rec = &WorkloadRecord{Correct: true, Metrics: map[string]*Summary{}}
		l.Workloads[workload] = rec
	}
	rec.Runs++
	rec.Attempted += res.Attempted
	rec.Failed += res.Failed
	rec.Correct = rec.Correct && res.Correct
	for name, v := range res.Metrics {
		s := rec.Metrics[name]
		if s == nil {
			s = &Summary{Unit: v.Unit}
			rec.Metrics[name] = s
		}
		s.Values = append(s.Values, v.Value)
		s.N = len(s.Values)
		s.Median, s.P25, s.P75 = quantile(s.Values, 0.5), quantile(s.Values, 0.25), quantile(s.Values, 0.75)
	}
}

// ErrorRate is the share of attempted operations that failed.
func (w *WorkloadRecord) ErrorRate() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// Verdicts of Compare.
const (
	Better     = "better"
	Within     = "within bound"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Comparison is the verdict on one (workload, end-to-end metric) pair.
type Comparison struct {
	Workload, Metric string
	Base, New        float64 // medians
	// Change is the relative change of the median, positive when worse.
	Change  float64
	Verdict string
}

// minRuns is the fewest runs per side from which Compare estimates spread.
const minRuns = 3

// Compare judges every end-to-end metric of every workload present in both
// ledgers against its bound. A pair is unresolved when either side has
// fewer than minRuns runs, or when either side's interquartile range, as a
// share of its median, exceeds the bound, unless every run of new beats
// every run of base. It also reports the workloads whose error rate rose. A
// comparison fails when any verdict is Worse or any error rate rose.
func Compare(base, next *Ledger) (cmp []Comparison, errorRose []string) {
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		if next.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, n := base.Workloads[name], next.Workloads[name]
		if n.ErrorRate() > b.ErrorRate() {
			errorRose = append(errorRose, name)
		}
		for _, m := range EndToEnd {
			bs, ns := b.Metrics[m.Name], n.Metrics[m.Name]
			if bs == nil || ns == nil {
				continue
			}
			cmp = append(cmp, compareMetric(name, m, bs, ns))
		}
	}
	return cmp, errorRose
}

func compareMetric(workload string, m Metric, b, n *Summary) Comparison {
	sign := 1.0 // +1: a larger value is worse
	if m.Better == "higher" {
		sign = -1
	}
	c := Comparison{Workload: workload, Metric: m.Name, Base: b.Median, New: n.Median}
	if b.Median != 0 {
		c.Change = sign * (n.Median - b.Median) / b.Median
	}
	switch {
	case b.N < minRuns || n.N < minRuns:
		c.Verdict = Unresolved
	case spread(b) > m.Bound || spread(n) > m.Bound:
		c.Verdict = Unresolved
		if allBetter(b.Values, n.Values, sign) {
			c.Verdict = Better
		}
	case c.Change > m.Bound:
		c.Verdict = Worse
	case c.Change < -m.Bound:
		c.Verdict = Better
	default:
		c.Verdict = Within
	}
	return c
}

// spread is a summary's interquartile range as a share of its median.
func spread(s *Summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.P75 - s.P25) / s.Median
}

// allBetter reports whether every new value beats every base value.
func allBetter(base, next []float64, sign float64) bool {
	for _, b := range base {
		for _, n := range next {
			if sign*(n-b) >= 0 {
				return false
			}
		}
	}
	return len(base) > 0 && len(next) > 0
}

// FormatComparison renders one comparison line.
func FormatComparison(c Comparison) string {
	return fmt.Sprintf("%-12s %-16s base %12.4f  new %12.4f  change %+7.2f%%  %s",
		c.Workload, c.Metric, c.Base, c.New, 100*c.Change, c.Verdict)
}
