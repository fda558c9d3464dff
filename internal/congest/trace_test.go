package congest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// traceTestNode is a tiny deterministic protocol used to pin the trace
// format: every node broadcasts one byte in Init (kind "ping") and in
// rounds 1-2 (retagged "pong" in round 2), then halts in round 3.
type traceTestNode struct{}

func (traceTestNode) Init(env *Env) []Outgoing {
	env.Tag("ping")
	return []Outgoing{Broadcast(Message{0x01})}
}

func (traceTestNode) Round(env *Env, inbox []Incoming) ([]Outgoing, bool) {
	if env.Round == 2 {
		env.Tag("pong")
	}
	if env.Round >= 3 {
		return nil, true
	}
	return []Outgoing{Broadcast(Message{byte(env.Round)})}, false
}

func tracePath4(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	return g
}

func runTraceProtocol(t *testing.T, tracer Tracer) Stats {
	t.Helper()
	return runTraceProtocolOpts(t, Options{Tracer: tracer})
}

func runTraceProtocolOpts(t *testing.T, opts Options) Stats {
	t.Helper()
	sim, err := NewSimulator(tracePath4(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(func(int) Node { return traceTestNode{} })
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestGoldenTrace locks the NDJSON event stream of a fixed protocol on a
// fixed graph against a committed golden file, sequentially and on a
// 4-worker pool. Regenerate intentionally with:
// UPDATE_GOLDEN=1 go test ./internal/congest -run TestGoldenTrace
func TestGoldenTrace(t *testing.T) {
	golden := filepath.Join("testdata", "golden_trace.ndjson")
	for _, opts := range []Options{{}, {Parallel: true, Workers: 4}} {
		var buf bytes.Buffer
		tracer := NewNDJSONTracer(&buf)
		opts.Tracer = tracer
		runTraceProtocolOpts(t, opts)
		if err := tracer.Err(); err != nil {
			t.Fatal(err)
		}
		if os.Getenv("UPDATE_GOLDEN") != "" && !opts.Parallel {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("parallel=%v: trace diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
				opts.Parallel, golden, buf.Bytes(), want)
		}
	}
}

// TestTraceReadBackAgreesWithLive replays the NDJSON stream into a
// MetricsTracer and checks it reconstructs exactly what a live
// MetricsTracer observed — a differential test of the trace codec itself.
func TestTraceReadBackAgreesWithLive(t *testing.T) {
	var live MetricsTracer
	var buf bytes.Buffer
	nd := NewNDJSONTracer(&buf)
	stats := runTraceProtocol(t, MultiTracer{&live, nd})
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}

	var replayed MetricsTracer
	events, err := ReadTrace(&buf, &replayed)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no events replayed")
	}
	if replayed.Stats() != stats {
		t.Fatalf("replayed stats %+v != live stats %+v", replayed.Stats(), stats)
	}
	if replayed.Info() != live.Info() {
		t.Fatalf("replayed info %+v != live info %+v", replayed.Info(), live.Info())
	}
	liveKinds, replayKinds := live.PerKind(), replayed.PerKind()
	if len(liveKinds) != len(replayKinds) {
		t.Fatalf("kind count %d != %d", len(replayKinds), len(liveKinds))
	}
	for i := range liveKinds {
		if liveKinds[i] != replayKinds[i] {
			t.Fatalf("kind %d: %+v != %+v", i, replayKinds[i], liveKinds[i])
		}
	}
	if len(live.PerRound()) != len(replayed.PerRound()) {
		t.Fatalf("round count %d != %d", len(replayed.PerRound()), len(live.PerRound()))
	}
	for i, rm := range live.PerRound() {
		if replayed.PerRound()[i] != rm {
			t.Fatalf("round %d: %+v != %+v", i, replayed.PerRound()[i], rm)
		}
	}
}

func TestMetricsTracerBreakdown(t *testing.T) {
	var m MetricsTracer
	stats := runTraceProtocol(t, &m)
	kinds := m.PerKind()
	if len(kinds) != 2 {
		t.Fatalf("expected kinds [ping pong], got %+v", kinds)
	}
	// Path on 4 vertices: broadcasts cost 2*m = 6 messages per full round.
	ping, pong := kinds[0], kinds[1]
	if ping.Kind != "ping" || pong.Kind != "pong" {
		t.Fatalf("kind order wrong: %+v", kinds)
	}
	if ping.FirstRound != 0 || ping.LastRound != 1 || ping.Messages != 12 {
		t.Fatalf("ping metrics wrong: %+v", ping)
	}
	if pong.FirstRound != 2 || pong.LastRound != 2 || pong.Messages != 6 {
		t.Fatalf("pong metrics wrong: %+v", pong)
	}
	if total := ping.Messages + pong.Messages; total != stats.Messages {
		t.Fatalf("kind totals %d != stats %d", total, stats.Messages)
	}
	if m.Utilization() <= 0 || m.Utilization() > 1 {
		t.Fatalf("utilization out of range: %v", m.Utilization())
	}
	rounds := m.PerRound()
	if len(rounds) != stats.Rounds+1 { // +1 for the Init round 0
		t.Fatalf("%d round records for %d rounds", len(rounds), stats.Rounds)
	}
	last := rounds[len(rounds)-1]
	if last.Halted != 4 || last.Active != 0 {
		t.Fatalf("final round counts wrong: %+v", last)
	}
}

// TestNilTracerHooksAllocateNothing pins the disabled-tracing fast path:
// every per-round hook dispatch must be a pointer comparison, not an
// allocation, so benchmark numbers with tracing off stay comparable.
func TestNilTracerHooksAllocateNothing(t *testing.T) {
	ts := traceSink{}
	allocs := testing.AllocsPerRun(200, func() {
		ts.runStart(RunInfo{N: 8, Edges: 7, Bandwidth: 16})
		ts.roundStart(1)
		ts.fault(FaultEvent{Round: 1, Kind: "drop", FromID: 1, ToID: 2})
		ts.roundEnd(1, 7, 1)
		ts.runEnd(Stats{})
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer hooks allocated %v times per round", allocs)
	}
}

func TestVertexOfIDPermuted(t *testing.T) {
	g := tracePath4(t)
	for _, seed := range []int64{0, 7, 424242} {
		sim, err := NewSimulator(g, Options{IDSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids := sim.IDs()
		seen := map[int]bool{}
		for v, id := range ids {
			if got := sim.VertexOfID(id); got != v {
				t.Fatalf("seed %d: VertexOfID(%d) = %d, want %d", seed, id, got, v)
			}
			if seen[id] {
				t.Fatalf("seed %d: duplicate ID %d", seed, id)
			}
			seen[id] = true
		}
		for _, bogus := range []int{0, -1, len(ids) + 1, 1 << 30} {
			if seen[bogus] {
				continue
			}
			if got := sim.VertexOfID(bogus); got != -1 {
				t.Fatalf("seed %d: VertexOfID(%d) = %d, want -1", seed, bogus, got)
			}
		}
	}
}

func benchTraceGraph() *graph.Graph {
	g := graph.New(32)
	for v := 1; v < 32; v++ {
		g.MustAddEdge(v, (v-1)/2) // complete binary tree
	}
	return g
}

func benchRun(b *testing.B, tracer Tracer) {
	b.Helper()
	g := benchTraceGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(g, Options{Tracer: tracer})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(func(int) Node { return traceTestNode{} }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTracerNil is the baseline the other two compare against; its
// allocation count must match the pre-tracing simulator exactly.
func BenchmarkRunTracerNil(b *testing.B)     { benchRun(b, nil) }
func BenchmarkRunTracerMetrics(b *testing.B) { benchRun(b, &MetricsTracer{}) }
func BenchmarkRunTracerNDJSON(b *testing.B) {
	benchRun(b, NewNDJSONTracer(discardWriter{}))
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
