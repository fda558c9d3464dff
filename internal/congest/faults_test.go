package congest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/graph/gen"
)

// scriptInjector is a deterministic, table-driven FaultInjector for testing
// exact engine semantics: plans are keyed by (round, from, to) and crash
// windows by (round, vertex).
type scriptInjector struct {
	plans map[[3]int]FaultPlan
	downs map[[2]int]bool
}

func (s *scriptInjector) RunStart(n int)       {}
func (s *scriptInjector) RoundStart(round int) {}
func (s *scriptInjector) NodeDown(round, vertex int) bool {
	return s.downs[[2]int{round, vertex}]
}
func (s *scriptInjector) OnSend(round, from, to, seq int) FaultPlan {
	return s.plans[[3]int{round, from, to}]
}

// chatterNode sends one 1-byte message carrying the round number on every
// port each round through lastRound, then halts. It records the payloads it
// receives and the round each one arrived in.
type chatterNode struct {
	lastRound int
	got       [][2]int // (arrival round, payload value)
	ran       []int    // rounds this node's program actually executed
}

func (c *chatterNode) Init(env *Env) []Outgoing {
	return []Outgoing{Broadcast(Message{0})}
}

func (c *chatterNode) Round(env *Env, inbox []Incoming) ([]Outgoing, bool) {
	c.ran = append(c.ran, env.Round)
	for _, in := range inbox {
		c.got = append(c.got, [2]int{env.Round, int(in.Payload[0])})
	}
	if env.Round >= c.lastRound {
		return nil, true
	}
	return []Outgoing{Broadcast(Message{byte(env.Round)})}, false
}

// forEachMode runs fn sequentially and on a 4-worker pool, with unchanged
// expectations: results may not depend on the execution mode.
func forEachMode(t *testing.T, fn func(t *testing.T, mode Options)) {
	for _, mode := range []Options{{}, {Parallel: true, Workers: 4}} {
		t.Run(fmt.Sprintf("workers=%d", mode.Workers), func(t *testing.T) { fn(t, mode) })
	}
}

func runChatter(t *testing.T, opts Options, inj FaultInjector, lastRound int) ([]*chatterNode, Stats) {
	t.Helper()
	opts.Injector = inj
	g := gen.Path(2)
	sim, err := NewSimulator(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*chatterNode, 2)
	stats, err := sim.Run(func(v int) Node {
		nodes[v] = &chatterNode{lastRound: lastRound}
		return nodes[v]
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes, stats
}

func TestInjectorDrop(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Options) {
		inj := &scriptInjector{plans: map[[3]int]FaultPlan{
			{2, 0, 1}: {Drop: true},
		}}
		nodes, stats := runChatter(t, mode, inj, 4)
		// Node 1 receives node 0's init (round 0) and rounds 1, 3 payloads; the
		// round-2 payload was dropped.
		want := [][2]int{{1, 0}, {2, 1}, {4, 3}}
		if got := nodes[1].got; len(got) != len(want) {
			t.Fatalf("receiver got %v, want %v", got, want)
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("receiver got %v, want %v", got, want)
				}
			}
		}
		if stats.Faults.Dropped != 1 {
			t.Fatalf("Dropped = %d, want 1", stats.Faults.Dropped)
		}
	})
}

func TestInjectorDelayParity(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Options) {
		// Delay node 0's round-1 payload by 1, 2, and 3 rounds in separate runs:
		// it must arrive in round 2+d's inbox, after every on-time payload sent
		// in between — for both inbox-buffer parities.
		for _, d := range []int{1, 2, 3} {
			inj := &scriptInjector{plans: map[[3]int]FaultPlan{
				{1, 0, 1}: {Delay: d},
			}}
			nodes, stats := runChatter(t, mode, inj, 6)
			gotRound := -1
			for _, g := range nodes[1].got {
				if g[1] == 1 {
					gotRound = g[0]
				}
			}
			if want := 2 + d; gotRound != want {
				t.Fatalf("delay %d: payload 1 arrived in round %d, want %d", d, gotRound, want)
			}
			if stats.Faults.Delayed != 1 {
				t.Fatalf("delay %d: Delayed = %d, want 1", d, stats.Faults.Delayed)
			}
		}
	})
}

func TestInjectorDup(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Options) {
		inj := &scriptInjector{plans: map[[3]int]FaultPlan{
			{1, 0, 1}: {Dup: 1},              // same-round duplicate
			{2, 0, 1}: {Dup: 1, DupDelay: 2}, // duplicate arrives two rounds late
		}}
		nodes, stats := runChatter(t, mode, inj, 6)
		count := map[[2]int]int{}
		for _, g := range nodes[1].got {
			count[g]++
		}
		if count[[2]int{2, 1}] != 2 {
			t.Fatalf("round-1 payload copies in round 2 = %d, want 2 (immediate dup)", count[[2]int{2, 1}])
		}
		if count[[2]int{3, 2}] != 1 || count[[2]int{5, 2}] != 1 {
			t.Fatalf("round-2 payload must arrive once on time (round 3) and once delayed (round 5); got %v", nodes[1].got)
		}
		if stats.Faults.Duplicated != 2 || stats.Faults.Delayed != 1 {
			t.Fatalf("Faults = %+v, want Duplicated=2 Delayed=1", stats.Faults)
		}
	})
}

func TestInjectorCrashRestart(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Options) {
		// Node 1 is down in rounds 2 and 3: its program must not run, the
		// payload delivered for round 2 is lost from its inbox, payloads sent to
		// it during rounds 2 and 3 are lost in transit, and after restart it
		// resumes with its recorded state intact.
		inj := &scriptInjector{downs: map[[2]int]bool{
			{2, 1}: true,
			{3, 1}: true,
		}}
		nodes, stats := runChatter(t, mode, inj, 6)
		for _, r := range nodes[1].ran {
			if r == 2 || r == 3 {
				t.Fatalf("down node executed in round %d (ran %v)", r, nodes[1].ran)
			}
		}
		// Node 1 sees rounds 0 (init, read in round 1) and 4, 5 payloads only:
		// payload 1 was pending when it crashed, payloads 2 and 3 arrived while
		// down.
		want := map[[2]int]bool{{1, 0}: true, {5, 4}: true, {6, 5}: true}
		for _, g := range nodes[1].got {
			if !want[g] {
				t.Fatalf("down node received %v (all: %v)", g, nodes[1].got)
			}
			delete(want, g)
		}
		if len(want) != 0 {
			t.Fatalf("missing post-restart deliveries %v (got %v)", want, nodes[1].got)
		}
		if stats.Faults.CrashRounds != 2 {
			t.Fatalf("CrashRounds = %d, want 2", stats.Faults.CrashRounds)
		}
		// Lost: the pending round-1 payload + the in-transit round-2 and
		// round-3 payloads.
		if stats.Faults.Lost != 3 {
			t.Fatalf("Lost = %d, want 3 (faults %+v)", stats.Faults.Lost, stats.Faults)
		}
	})
}

func TestInjectorDelayedToHaltedIsLost(t *testing.T) {
	forEachMode(t, func(t *testing.T, mode Options) {
		// Both nodes halt at round 2; a round-1 payload delayed by 5 rounds can
		// never be delivered.
		inj := &scriptInjector{plans: map[[3]int]FaultPlan{
			{1, 0, 1}: {Delay: 5},
		}}
		_, stats := runChatter(t, mode, inj, 2)
		if stats.Faults.Delayed != 1 || stats.Faults.Lost != 1 {
			t.Fatalf("Faults = %+v, want Delayed=1 Lost=1", stats.Faults)
		}
	})
}

// TestZeroInjectorTransparent is the engine half of the transparency
// property: an injector that plans nothing and downs nobody leaves stats and
// the full NDJSON trace byte-identical to a run with no injector at all,
// sequential or parallel.
func TestZeroInjectorTransparent(t *testing.T) {
	g, _ := gen.BoundedTreedepth(60, 3, 0.3, 7)
	run := func(opts Options) (Stats, []byte) {
		var buf bytes.Buffer
		tr := NewNDJSONTracer(&buf)
		opts.Tracer = tr
		sim, err := NewSimulator(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run(func(v int) Node { return &chatterNode{lastRound: 5} })
		if err != nil {
			t.Fatal(err)
		}
		if tr.Err() != nil {
			t.Fatal(tr.Err())
		}
		return stats, buf.Bytes()
	}
	baseStats, baseTrace := run(Options{})
	for _, opts := range []Options{
		{Injector: &scriptInjector{}},
		{Injector: &scriptInjector{}, Parallel: true, Workers: 4},
	} {
		stats, trace := run(opts)
		if stats != baseStats {
			t.Fatalf("stats with zero injector = %+v, want %+v", stats, baseStats)
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Fatalf("NDJSON trace with zero injector differs from fault-free trace")
		}
	}
}
