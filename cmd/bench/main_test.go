package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestScalingSizesWithoutReport: -scaling-sizes picks the S1 sweep's sizes
// even when no -scaling-out report is written.
func TestScalingSizesWithoutReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-only", "S1", "-scaling-sizes", "64", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 3 || lines[0] != "# S1" || !strings.HasPrefix(lines[1], "family,n,") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	for _, row := range lines[2:] {
		if cells := strings.Split(row, ","); len(cells) < 2 || cells[1] != "64" {
			t.Fatalf("row %q: want n = 64", row)
		}
	}
}
