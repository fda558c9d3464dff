package protocols_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular/predicates"
)

// TestGoldenDPTraces locks the complete NDJSON event stream of the DP
// protocol — every message of the elimination, bag, upward-table, and
// downward phases — against committed golden files, one per mode. The DP
// tables cross the wire in canonical (key-sorted) entry order, so any change
// to table construction, interning, or caching that altered a single byte or
// the order of a single entry would diverge here. Each case also runs on a
// 4-worker pool against the same file. Regenerate intentionally
// with: UPDATE_GOLDEN=1 go test ./internal/protocols -run TestGoldenDPTraces
func TestGoldenDPTraces(t *testing.T) {
	g, _ := gen.BoundedTreedepth(18, 2, 0.3, 42)
	gen.AssignRandomWeights(g, 9, 43)
	marked := g.Clone()
	marked.SetVertexLabel(protocols.MarkLabel, 0)
	marked.SetVertexLabel(protocols.MarkLabel, 5)

	cases := []struct {
		name string
		run  func(opts congest.Options) error
	}{
		{"decide_connected", func(opts congest.Options) error {
			_, err := protocols.Run(g, protocols.Config{Pred: predicates.Connectivity{}, Mode: protocols.ModeDecide, D: 2}, opts)
			return err
		}},
		{"opt_indset", func(opts congest.Options) error {
			_, err := protocols.Run(g, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeOptimize, D: 2, Maximize: true}, opts)
			return err
		}},
		{"count_matching", func(opts congest.Options) error {
			_, err := protocols.Run(g, protocols.Config{Pred: predicates.Matching{}, Mode: protocols.ModeCount, D: 2}, opts)
			return err
		}},
		{"checkmarked_indset", func(opts congest.Options) error {
			_, err := protocols.Run(marked, protocols.Config{Pred: predicates.IndependentSet{}, Mode: protocols.ModeCheckMarked, D: 2, Maximize: true}, opts)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			golden := filepath.Join("testdata", fmt.Sprintf("golden_dp_%s.ndjson", tc.name))
			for _, opts := range []congest.Options{{IDSeed: 7}, {IDSeed: 7, Parallel: true, Workers: 4}} {
				var buf bytes.Buffer
				tracer := congest.NewNDJSONTracer(&buf)
				opts.Tracer = tracer
				if err := tc.run(opts); err != nil {
					t.Fatal(err)
				}
				if err := tracer.Err(); err != nil {
					t.Fatal(err)
				}
				if os.Getenv("UPDATE_GOLDEN") != "" && !opts.Parallel {
					if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("parallel=%v: DP trace diverged from golden file %s (got %d bytes, want %d)",
						opts.Parallel, golden, buf.Len(), len(want))
				}
			}
		})
	}
}
