// Package experiments implements the evaluation suite of EXPERIMENTS.md:
// every table (T1–T7) and figure series (F1–F3) validating the paper's
// quantitative and correctness claims. The same functions back the
// cmd/bench harness and the root bench_test.go benchmarks; Quick mode
// shrinks the sweeps for use inside the test suite.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's output: an identifier, header, and rows of
// preformatted cells, plus free-text notes stating the claim validated.
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, formatting every cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Render prints the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "Claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "Note: %s\n", note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID  string
	Run func(quick bool) (*Table, error)
}

// All returns the full suite in EXPERIMENTS.md order.
func All() []Experiment {
	return []Experiment{
		{"T1", T1DecisionRoundsVsN},
		{"T2", T2RoundsVsDepth},
		{"T3", T3Optimization},
		{"T4", T4Counting},
		{"T5", T5OptMarked},
		{"T6", T6HFreeExpansion},
		{"T7", T7GenericVsCompiled},
		{"T8", T8PhaseBreakdown},
		{"F1", F1MessageWidth},
		{"F2", F2BaselineCrossover},
		{"F3", F3ElimTree},
		{"S1", S1Scaling},
		{"S2", S2DP},
		{"S3", S3Faults},
		{"S6", S6TD},
	}
}

// Lookup finds one experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
