package congest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/graph/gen"
)

// splitSendNode sends two same-port messages per round whose individual
// sizes respect the single-message cap; whether their sum respects the
// per-edge budget depends on the configured bandwidth. The seed simulator
// checked each message alone, so a pair totaling B+8 bits slipped through.
type splitSendNode struct {
	bytesEach int
	inInit    bool
}

func (s *splitSendNode) Init(env *Env) []Outgoing {
	if !s.inInit {
		return nil
	}
	return []Outgoing{
		{Port: 0, Payload: make(Message, s.bytesEach)},
		{Port: 0, Payload: make(Message, s.bytesEach)},
	}
}

func (s *splitSendNode) Round(env *Env, inbox []Incoming) ([]Outgoing, bool) {
	if s.inInit || env.Round > 1 {
		return nil, true
	}
	return []Outgoing{
		{Port: 0, Payload: make(Message, s.bytesEach)},
		{Port: 0, Payload: make(Message, s.bytesEach)},
	}, false
}

// TestAggregateBandwidthEnforced is the headline regression test: a node
// that splits B+8 bits across two same-port sends in one round must error,
// where the seed code (which checked each Outgoing alone) accepted it.
func TestAggregateBandwidthEnforced(t *testing.T) {
	g := gen.Path(4) // n=4: B = 4*ceil(log2 4) = 8 bits
	for _, tc := range []struct {
		name     string
		parallel bool
		inInit   bool
	}{
		{"sequential/round", false, false},
		{"parallel/round", true, false},
		{"sequential/init", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := NewSimulator(g, Options{Parallel: tc.parallel, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			// Two 1-byte messages on one port: 8+8 = 16 bits > B = 8, though
			// each alone fits exactly.
			_, err = sim.Run(func(int) Node { return &splitSendNode{bytesEach: 1, inInit: tc.inInit} })
			if !errors.Is(err, ErrBandwidthExceeded) {
				t.Fatalf("err = %v, want ErrBandwidthExceeded", err)
			}
			if errors.Is(err, ErrMessageTooLarge) {
				t.Fatal("aggregate overflow must not masquerade as a single oversized message")
			}
		})
	}

	// The same pair under a doubled budget (B = 16) is legal.
	sim, err := NewSimulator(g, Options{BandwidthFactor: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(func(int) Node { return &splitSendNode{bytesEach: 1} }); err != nil {
		t.Fatalf("two sends within the aggregate budget must pass: %v", err)
	}

	// Unbounded mode disables the aggregate check like the per-message one.
	sim2, err := NewSimulator(g, Options{Unbounded: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Run(func(int) Node { return &splitSendNode{bytesEach: 64} }); err != nil {
		t.Fatalf("unbounded run failed: %v", err)
	}
}

// TestBandwidthFormula pins B = factor * ceil(log2 n), floored at 8 bits.
// The seed used bits.Len(n) = floor(log2 n)+1, which over-granted whenever n
// is a power of two (n=8 got 16 bits instead of 12).
func TestBandwidthFormula(t *testing.T) {
	cases := []struct {
		n      int
		factor int
		want   int
	}{
		{1, 0, 8},     // ceil(log2 1) floored to 1 -> 4, floored to 8
		{2, 0, 8},     // 4*1 = 4 -> 8
		{8, 0, 12},    // 4*3 (seed: 4*4 = 16)
		{9, 0, 16},    // 4*4
		{1024, 0, 40}, // 4*10 (seed: 4*11 = 44)
		{8, 1, 8},     // 1*3 -> floor
		{9, 8, 32},    // 8*4
		{1024, 8, 80}, // 8*10
	}
	for _, tc := range cases {
		o := Options{BandwidthFactor: tc.factor}
		if got := o.bandwidth(tc.n); got != tc.want {
			t.Errorf("bandwidth(n=%d, factor=%d) = %d, want %d", tc.n, tc.factor, got, tc.want)
		}
	}
}

// orderSendNode (vertex with degree 1) sends two distinguishable same-port
// messages in one round; orderRecvNode records the exact arrival order.
type orderSendNode struct{}

func (orderSendNode) Init(*Env) []Outgoing { return nil }
func (orderSendNode) Round(env *Env, inbox []Incoming) ([]Outgoing, bool) {
	if env.Round > 1 {
		return nil, true
	}
	return []Outgoing{
		{Port: 0, Payload: Message{0xAA}},
		{Port: 0, Payload: Message{0xBB}},
	}, false
}

type orderRecvNode struct{ got []byte }

func (r *orderRecvNode) Init(*Env) []Outgoing { return nil }
func (r *orderRecvNode) Round(env *Env, inbox []Incoming) ([]Outgoing, bool) {
	for _, in := range inbox {
		r.got = append(r.got, in.Payload...)
	}
	return nil, env.Round >= 2
}

// TestSamePortDeliveryOrder: two messages sent on one port in one round are
// observed in send order — a documented guarantee since the stable inbox
// sort (the seed's non-stable sort keyed only on Port could legally swap
// them).
func TestSamePortDeliveryOrder(t *testing.T) {
	g := gen.Path(2) // n=2: B = 8; raise to 16 so the pair fits the budget
	for _, parallel := range []bool{false, true} {
		recv := &orderRecvNode{}
		sim, err := NewSimulator(g, Options{BandwidthFactor: 16, Parallel: parallel, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(func(v int) Node {
			if v == 0 {
				return orderSendNode{}
			}
			return recv
		}); err != nil {
			t.Fatal(err)
		}
		if string(recv.got) != "\xaa\xbb" {
			t.Fatalf("parallel=%v: same-port messages out of send order: % x", parallel, recv.got)
		}
	}
}

// starProbeNode checks that a large inbox (the star center hears from every
// leaf, exercising the non-insertion sort path) comes out port-sorted.
type starProbeNode struct {
	t      *testing.T
	center bool
}

func (s *starProbeNode) Init(env *Env) []Outgoing {
	if s.center {
		return nil
	}
	return []Outgoing{{Port: 0, Payload: encodeID(env.ID)}}
}

func (s *starProbeNode) Round(env *Env, inbox []Incoming) ([]Outgoing, bool) {
	if s.center && env.Round == 1 {
		if len(inbox) != env.Degree {
			s.t.Errorf("center inbox has %d entries, want %d", len(inbox), env.Degree)
		}
		for i, in := range inbox {
			if in.Port != i {
				s.t.Errorf("inbox[%d].Port = %d, want ascending ports", i, in.Port)
			}
			if decodeID(in.Payload) != env.NeighborIDs[in.Port] {
				s.t.Errorf("inbox[%d] payload does not match sender on port %d", i, in.Port)
			}
		}
	}
	return nil, true
}

func TestLargeInboxPortOrder(t *testing.T) {
	g := gen.Star(64)
	for _, parallel := range []bool{false, true} {
		sim, err := NewSimulator(g, Options{Parallel: parallel, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(func(v int) Node {
			return &starProbeNode{t: t, center: v == 0}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelWorkerCountsMatchSequential runs the flood-min protocol under
// adversarial IDs and fault injection across worker counts: every
// configuration must be bit-identical to the sequential run (same stats,
// same node states), for any shard layout.
func TestParallelWorkerCountsMatchSequential(t *testing.T) {
	g := gen.Grid(5, 7)
	type outcome struct {
		stats Stats
		mins  []int
	}
	run := func(parallel bool, workers int) outcome {
		sim, err := NewSimulator(g, Options{
			Parallel: parallel, Workers: workers,
			IDSeed: 99, CorruptProb: 0.2, CorruptSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]*floodMinNode, g.NumVertices())
		stats, err := sim.Run(func(v int) Node {
			nodes[v] = &floodMinNode{maxRound: 15}
			return nodes[v]
		})
		if err != nil {
			t.Fatal(err)
		}
		mins := make([]int, len(nodes))
		for v, n := range nodes {
			mins[v] = n.min
		}
		return outcome{stats, mins}
	}
	want := run(false, 0)
	for _, workers := range []int{1, 2, 3, 8} {
		got := run(true, workers)
		if got.stats != want.stats {
			t.Fatalf("workers=%d: stats %+v != sequential %+v", workers, got.stats, want.stats)
		}
		for v := range want.mins {
			if got.mins[v] != want.mins[v] {
				t.Fatalf("workers=%d: node %d state differs from sequential", workers, v)
			}
		}
	}
}

// badPortNode sends to a port it does not have.
type badPortNode struct{}

func (badPortNode) Init(*Env) []Outgoing { return nil }
func (badPortNode) Round(env *Env, inbox []Incoming) ([]Outgoing, bool) {
	return []Outgoing{{Port: env.Degree + 3, Payload: Message{1}}}, false
}

// TestInvalidPortErrorBothModes: validation errors surface identically (and
// deterministically) sequentially and on the worker pool.
func TestInvalidPortErrorBothModes(t *testing.T) {
	g := gen.Path(6)
	var msgs []string
	for _, parallel := range []bool{false, true} {
		sim, err := NewSimulator(g, Options{Parallel: parallel, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run(func(int) Node { return badPortNode{} })
		if err == nil {
			t.Fatal("invalid port must error")
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error differs between modes: %q vs %q", msgs[0], msgs[1])
	}
}

// TestActiveListShrinks pins the sharded engine's late-round behavior: a
// protocol where nodes halt one by one must not degrade — exercised here
// simply for correctness of active-list compaction (every node must still
// run its final round and the stats must account all halts).
func TestActiveListShrinks(t *testing.T) {
	g := gen.Path(30)
	for _, parallel := range []bool{false, true} {
		sim, err := NewSimulator(g, Options{Parallel: parallel, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Node with ID k halts in round k: staggered halting.
		stats, err := sim.Run(func(int) Node { return &staggerNode{} })
		if err != nil {
			t.Fatal(err)
		}
		if stats.HaltedNodes != 30 || stats.Rounds != 30 {
			t.Fatalf("parallel=%v: stats %+v, want 30 halts over 30 rounds", parallel, stats)
		}
	}
}

type staggerNode struct{ id int }

func (s *staggerNode) Init(env *Env) []Outgoing { s.id = env.ID; return nil }
func (s *staggerNode) Round(env *Env, inbox []Incoming) ([]Outgoing, bool) {
	return nil, env.Round >= s.id
}

func ExampleErrBandwidthExceeded() {
	g := gen.Path(4)
	sim, _ := NewSimulator(g, Options{})
	_, err := sim.Run(func(int) Node { return &splitSendNode{bytesEach: 1} })
	fmt.Println(errors.Is(err, ErrBandwidthExceeded))
	// Output: true
}
