package protocols

import (
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph/gen"
	"repro/internal/regular/predicates"
)

// TestNodeSlabClear checks that a cleared slab holds nothing of its run:
// every node and state it handed out is zero again, so a pooled slab keeps
// no bag, table or cache alive and starts the next run clean.
func TestNodeSlabClear(t *testing.T) {
	var s nodeSlab
	cfg := Config{Pred: predicates.IndependentSet{}, Mode: ModeOptimize, D: 3}
	nodes := s.fill(&cfg, 5)
	for i := range nodes {
		nodes[i].depth = i + 1
		nodes[i].bag = []int{i}
		nodes[i].out.Weight = int64(i)
	}
	s.clear()
	nodes, states := s.nodes[:cap(s.nodes)], s.states[:cap(s.states)]
	for i := range nodes {
		if !reflect.ValueOf(nodes[i]).IsZero() || !reflect.ValueOf(states[i]).IsZero() {
			t.Fatalf("node %d not zeroed by clear", i)
		}
	}
}

// TestRunReusesCleanSlabs runs a small graph, then a larger one, then the
// small one again, whose nodes then come from the larger run's recycled
// slab: the repeat must match the first run output for output.
func TestRunReusesCleanSlabs(t *testing.T) {
	small, _ := gen.BoundedTreedepth(30, 3, 0.2, 7)
	big, _ := gen.BoundedTreedepth(80, 3, 0.2, 8)
	gen.AssignRandomWeights(small, 20, 9)
	gen.AssignRandomWeights(big, 20, 10)
	cfg := Config{Pred: predicates.IndependentSet{}, Mode: ModeOptimize, D: 3, Maximize: true}
	opts := congest.Options{}
	want, err := Run(small, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(big, cfg, opts); err != nil {
		t.Fatal(err)
	}
	got, err := Run(small, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != want.Weight || got.Stats != want.Stats || !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("repeat run differs: weight %d vs %d, stats %+v vs %+v", got.Weight, want.Weight, got.Stats, want.Stats)
	}
}
