package congest

import (
	"testing"

	"repro/internal/graph/gen"
)

// steadyNode broadcasts a fixed 2-byte payload every round and never halts.
// Its outbox and payload are arrays inside the node so the node program
// itself performs zero heap allocations — any allocation AllocsPerRun sees
// below is the engine's.
type steadyNode struct {
	buf [2]byte
	out [1]Outgoing
}

func (c *steadyNode) Init(env *Env) []Outgoing {
	c.out[0] = Outgoing{Port: -1, Payload: c.buf[:]}
	return c.out[:]
}

func (c *steadyNode) Round(env *Env, inbox []Incoming) ([]Outgoing, bool) {
	for _, in := range inbox {
		c.buf[0] += in.Payload[0]
	}
	c.buf[1]++
	return c.out[:], false
}

// testSteadyAllocs drives the engine's round loop directly (via startRun /
// initPhase / stepRound) on an all-broadcast workload and returns the
// allocations per round after warm-up.
func testSteadyAllocs(t *testing.T, opts Options) float64 {
	t.Helper()
	g := gen.ConnectedSparseGNP(512, 8.0/512, 11)
	sim, err := NewSimulator(g, opts)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	nodes := make([]steadyNode, g.NumVertices())
	e := sim.startRun(func(v int) Node { return &nodes[v] })
	if e.pool != nil {
		defer e.pool.close()
	}
	if err := e.initPhase(); err != nil {
		t.Fatalf("initPhase: %v", err)
	}
	// Warm-up: let inboxes, arenas, and route buckets reach their
	// steady-state capacity.
	for i := 0; i < 8; i++ {
		if err := e.stepRound(); err != nil {
			t.Fatalf("warm-up round: %v", err)
		}
	}
	return testing.AllocsPerRun(50, func() {
		if err := e.stepRound(); err != nil {
			t.Fatalf("stepRound: %v", err)
		}
	})
}

// TestEngineSteadyStateZeroAllocs pins the steady-state round loop —
// compute, validate, route, deliver, compact — at zero heap allocations per
// round after warm-up, in both execution modes. This is the engine half of
// the million-node memory budget: per-round cost must be bounded by buffer
// reuse, not by n allocations a round.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	if avg := testSteadyAllocs(t, Options{}); avg != 0 {
		t.Errorf("sequential steady-state round loop allocates %.1f objects/round, want 0", avg)
	}
	if avg := testSteadyAllocs(t, Options{Parallel: true, Workers: 2}); avg != 0 {
		t.Errorf("parallel steady-state round loop allocates %.1f objects/round, want 0", avg)
	}
}

// TestSortInboxStable pins sortInbox's contract on the rare out-of-order
// path (fault-delayed copies flushed ahead of normal traffic): ordered by
// port, stable within a port.
func TestSortInboxStable(t *testing.T) {
	inbox := []Incoming{
		{Port: 3, Payload: Message{0}},
		{Port: 1, Payload: Message{1}},
		{Port: 3, Payload: Message{2}},
		{Port: 0, Payload: Message{3}},
		{Port: 1, Payload: Message{4}},
	}
	sortInbox(inbox)
	want := []Incoming{
		{Port: 0, Payload: Message{3}},
		{Port: 1, Payload: Message{1}},
		{Port: 1, Payload: Message{4}},
		{Port: 3, Payload: Message{0}},
		{Port: 3, Payload: Message{2}},
	}
	for i := range want {
		if inbox[i].Port != want[i].Port || inbox[i].Payload[0] != want[i].Payload[0] {
			t.Fatalf("sortInbox[%d] = {%d %v}, want {%d %v}", i, inbox[i].Port, inbox[i].Payload, want[i].Port, want[i].Payload)
		}
	}
	sorted := []Incoming{{Port: 0}, {Port: 2}, {Port: 2}, {Port: 5}}
	sortInbox(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Port < sorted[i-1].Port {
			t.Fatalf("sorted input reordered at %d", i)
		}
	}
}
