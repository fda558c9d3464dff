// Package congest implements a deterministic simulator for the CONGEST model
// of distributed computing (Peleg 2000): a synchronous network of nodes, one
// per graph vertex, where in each round every node may send one message of
// at most B = O(log n) bits to each neighbor. The simulator enforces the
// bandwidth cap on every edge in every round, assigns O(log n)-bit unique
// identifiers (optionally adversarially permuted), and accounts rounds,
// messages, and bits so that protocol round complexity can be measured
// exactly as the theory states it.
package congest

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"runtime"

	"repro/internal/graph"
)

// ErrMessageTooLarge is returned when a node sends a single message
// exceeding the per-edge per-round bandwidth.
var ErrMessageTooLarge = errors.New("congest: message exceeds bandwidth")

// ErrBandwidthExceeded is returned when the messages a node sends on one
// port in one round are individually within budget but together exceed the
// per-edge per-round bandwidth. The CONGEST cap is a property of the edge,
// not of any single message: k messages of B bits each on one port would
// push k*B bits over an edge that carries at most B per round.
var ErrBandwidthExceeded = errors.New("congest: per-edge bandwidth exceeded")

// ErrRoundLimit is returned when a protocol exceeds the configured maximum
// number of rounds without halting.
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// ErrCanceled is returned when Options.Context is canceled mid-run; the
// underlying context error (context.Canceled or context.DeadlineExceeded)
// is wrapped and recoverable with errors.Is.
var ErrCanceled = errors.New("congest: run canceled")

// DefaultBandwidthFactor is the constant c in B = c * ceil(log2 n) bits.
const DefaultBandwidthFactor = 4

// DefaultRoundLimit caps simulations that fail to halt.
const DefaultRoundLimit = 1 << 20

// Message is a payload in flight on one edge. Its size in bits is 8*len.
type Message []byte

// Incoming pairs a received message with the port (neighbor index) it
// arrived on. An inbox is ordered by Port, and messages that share a port
// arrive in the order they were sent (delivery order is a documented
// guarantee, not an accident of the engine). Payload memory is owned by the
// simulator and is valid only for the duration of the Round call that
// receives it; nodes that keep bytes across rounds must copy them
// (ByteStreamReceiver.Feed already does). In the other direction, an
// Outgoing payload only has to stay valid until the engine has read it,
// which it does right after the Round (or Init) call that returned it, in
// the same pool task: a node may rewrite its payload buffers on its next
// call (ByteStreamSender frames are valid until the sender's next Push).
type Incoming struct {
	Port    int
	Payload Message
}

// Node is the interface a protocol implements. A node knows only its own
// identifier, its degree, and whatever arrives in messages.
type Node interface {
	// Init is called once before round 1. Degree is the number of ports
	// (0..degree-1); port order is arbitrary but fixed. Send messages by
	// returning Outgoing entries.
	Init(env *Env) []Outgoing
	// Round is called every round with the messages received at the end of
	// the previous round. Returning halted = true stops this node: it sends
	// nothing further and receives nothing further; the simulation ends when
	// all nodes have halted.
	Round(env *Env, inbox []Incoming) (out []Outgoing, halted bool)
}

// Outgoing routes a payload to a port (-1 broadcasts to all ports).
type Outgoing struct {
	Port    int
	Payload Message
}

// Broadcast builds an Outgoing that sends the payload on every port.
func Broadcast(payload Message) Outgoing { return Outgoing{Port: -1, Payload: payload} }

// Env exposes the node-local view of the network.
type Env struct {
	// ID is the node's unique O(log n)-bit identifier.
	ID int
	// Degree is the number of incident edges (ports 0..Degree-1).
	Degree int
	// NeighborIDs[p] is the identifier of the neighbor on port p. In CONGEST
	// nodes learn neighbor IDs in one round; the simulator provides them
	// up front and charges the protocol nothing, as is standard.
	NeighborIDs []int
	// Bandwidth is the per-edge per-round message budget in bits.
	Bandwidth int
	// N is the number of nodes (known to nodes, as usual in CONGEST).
	N int
	// Round is the current round number (1-based; 0 during Init).
	Round int
	// Weight and Labels carry the node's local input (vertex weight and
	// unary predicates), part of the input assignment in the labeled-graph
	// setting of the paper.
	Weight int64
	Labels map[string]bool
	// PortWeight and PortLabels carry local edge inputs per port.
	PortWeight []int64
	PortLabels []map[string]bool

	// kind is the node's current message tag, set via Tag. In a traced run
	// the node's shard reads it when it emits the node's messages.
	kind string
}

// Tag labels all messages this node sends from now on with the given
// protocol-defined kind, until retagged. Tags are observability metadata
// only: they cost no bandwidth, carry no information between nodes, and are
// ignored entirely unless a Tracer is installed. Protocols typically tag at
// phase transitions ("elim", "bag", "table", ...), which gives per-phase
// round/bit breakdowns in the captured trace.
func (e *Env) Tag(kind string) { e.kind = kind }

// Kind returns the node's current message tag (the last value passed to
// Tag). Protocol adapters that interpose between the simulator and an inner
// node use it to forward the inner node's phase tags to the real Env.
func (e *Env) Kind() string { return e.kind }

// Stats aggregates the cost of a simulation.
type Stats struct {
	Rounds      int
	Messages    int64
	Bits        int64
	MaxMsgBits  int // largest single message
	Bandwidth   int // enforced per-edge per-round budget in bits
	HaltedNodes int
	// Faults aggregates what the installed FaultInjector did to the run
	// (all zero when Options.Injector is nil).
	Faults FaultStats
}

// FaultStats counts injected faults. Messages/Bits above count what was
// actually delivered; these counters account for the difference.
type FaultStats struct {
	// Dropped counts messages the injector discarded at send time.
	Dropped int64
	// Duplicated counts extra copies the injector delivered.
	Duplicated int64
	// Delayed counts messages (or copies) deferred past their normal
	// delivery round.
	Delayed int64
	// Lost counts messages that were en route or queued when their receiver
	// halted or crashed: cleared inbox entries of down nodes plus delayed
	// copies whose receiver halted before the due round.
	Lost int64
	// CrashRounds is the total node-rounds spent down (crashed).
	CrashRounds int64
}

// FaultPlan is an injector's verdict on one validated message. The zero
// value means normal, on-time delivery.
type FaultPlan struct {
	// Drop discards the original copy.
	Drop bool
	// Delay defers the original copy by this many extra rounds (a message
	// sent in round r normally arrives for round r+1; with Delay d it
	// arrives for round r+1+d). Ignored when Drop is set.
	Delay int
	// Dup delivers this many extra copies, each deferred by DupDelay.
	Dup      int
	DupDelay int
}

// add accumulates another shard's counters.
func (f *FaultStats) add(o FaultStats) {
	f.Dropped += o.Dropped
	f.Duplicated += o.Duplicated
	f.Delayed += o.Delayed
	f.Lost += o.Lost
	f.CrashRounds += o.CrashRounds
}

// FaultInjector decides the fate of every message and the up/down state of
// every node. The engine calls RunStart once per run, and RoundStart then
// NodeDown serially at the top of every round; it calls OnSend
// concurrently from its delivery shards, in no fixed order, so OnSend must
// be a pure function of its arguments and the state RoundStart left.
// Vertices, not IDs, identify endpoints so a schedule is independent of the
// ID permutation. Because OnSend is keyed by the message rather than by
// call order, the injected fault stream is identical for any
// Options.Workers value.
type FaultInjector interface {
	// RunStart resets the injector for an n-vertex run (re-seeding any
	// internal randomness, so reusing Options replays the same faults).
	RunStart(n int)
	// RoundStart is called once per round (1-based) before node programs
	// execute; crash windows opening in this round must be decided here.
	RoundStart(round int)
	// NodeDown reports whether the vertex is down (crashed) in the round.
	// A down node does not execute, loses its pending inbox, and receives
	// nothing; its protocol state survives the outage (crash-restart with
	// stable memory). Round 0 (Init) is never down.
	NodeDown(round, vertex int) bool
	// OnSend plans the fate of one message from vertex `from` to vertex
	// `to` in the given round; seq is the message's index among everything
	// `from` sent that round, so (round, from, seq) identifies it.
	OnSend(round, from, to, seq int) FaultPlan
}

// KeyedDraw hashes (seed, round, a, b, lane) to a uniform float64 in [0, 1)
// with splitmix64's finalizer. A fault decision built on it is a pure
// function of what it concerns, so any shard may evaluate it in any order:
// the engine's bit corruption and faults.Injector key messages by
// (sender, seq). Independent decisions about one key use distinct lanes.
func KeyedDraw(seed int64, round, a, b int, lane uint64) float64 {
	z := uint64(seed) ^
		uint64(round)*0x9E3779B97F4A7C15 ^
		uint64(a)*0xBF58476D1CE4E5B9 ^
		uint64(b)*0x94D049BB133111EB
	z += lane
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Options configure a simulation.
type Options struct {
	// BandwidthFactor is c in B = c*ceil(log2 n); 0 means
	// DefaultBandwidthFactor.
	BandwidthFactor int
	// RoundLimit caps rounds; 0 means DefaultRoundLimit.
	RoundLimit int
	// IDSeed permutes node identifiers pseudo-randomly when nonzero,
	// modeling adversarial ID assignment. IDs remain unique and O(log n)
	// bits. When zero, node v gets ID v+1.
	IDSeed int64
	// Unbounded disables the bandwidth check (diagnostics only).
	Unbounded bool
	// CorruptProb flips one random bit in each delivered message with this
	// probability (fault injection for robustness testing). The draws are
	// KeyedDraw hashes of (CorruptSeed, round, sender, seq).
	CorruptProb float64
	CorruptSeed int64
	// Parallel executes node programs concurrently within each round on a
	// persistent sharded worker pool (workers are spawned once per run, and
	// vertices are partitioned into contiguous shards with per-shard active
	// lists). Results are bit-identical to sequential execution: nodes share
	// no state, shards are contiguous vertex ranges, and delivery merges
	// shard outputs in deterministic vertex order either way.
	Parallel bool
	// Workers is the worker-pool size used when Parallel is set; 0 means
	// GOMAXPROCS. The value never affects results, only scheduling.
	Workers int
	// Tracer observes the run at round and message granularity (nil
	// disables tracing at no measurable cost). Installing one does not
	// change how the run executes: delivery shards buffer their events, and
	// the engine replays them at the end of each round in sender-vertex
	// order (see replayRound), so the event stream is identical for any
	// Workers value.
	Tracer Tracer
	// Injector subjects the run to message drops, duplication, delays, and
	// node crashes (nil means a fault-free network). Message faults are
	// decided in the parallel delivery phase by OnSend, keyed by message;
	// crash draws run serially at the top of each round.
	Injector FaultInjector
	// Context, when non-nil, cancels the simulation: the engine checks it at
	// every round barrier and returns ctx.Err() (wrapped in ErrCanceled)
	// with the stats accumulated so far. Cancellation never affects the
	// result of a run that completes — it only bounds how long a run may
	// take, which is what a serving deadline needs.
	Context context.Context
}

// BandwidthBits reports the per-edge per-round budget these options yield on
// an n-node network. Exported so protocol adapters can size their frames
// before a run exists.
func (o Options) BandwidthBits(n int) int { return o.bandwidth(n) }

// bandwidth computes the per-edge budget B = factor * ceil(log2 n) bits for
// an n-node network (with ceil(log2 n) floored at 1 so single-node networks
// get a budget). The result is floored at 8 bits so that byte-aligned
// frames always fit.
func (o Options) bandwidth(n int) int {
	factor := o.BandwidthFactor
	if factor == 0 {
		factor = DefaultBandwidthFactor
	}
	// bits.Len(n-1) is exactly ceil(log2 n) for n >= 1.
	logn := bits.Len(uint(n - 1))
	if logn < 1 {
		logn = 1
	}
	b := factor * logn
	if b < 8 {
		b = 8
	}
	return b
}

// workerCount resolves Options.Workers against GOMAXPROCS.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// csrAdj is the simulator's compressed-sparse-row adjacency: one offset
// array plus flat per-port arrays, built once at construction and shared
// read-only by every shard. Port p of vertex v lives at index off[v]+p.
// Compared to per-vertex slices-of-slices plus a neighbor->port map per
// vertex, CSR removes ~n slice headers and n maps from the hot path, keeps
// delivery lookups at two array indexings, and packs the whole topology into
// four cache-friendly arrays (int32 is ample: vertices, ports, and edge IDs
// all stay far below 2^31 at the n = 10^6 scale the engine targets).
type csrAdj struct {
	off []int32 // len n+1: ports of v are [off[v], off[v+1])
	nbr []int32 // len 2m: neighbor vertex on (v, p), ascending per vertex
	// back[off[v]+p] is v's port number at the neighbor on (v, p) — the
	// receiver port of a message sent on (v, p). Precomputing it replaces the
	// per-delivery map lookup portsOf[w][v] of the slice-based layout.
	back []int32
	edge []int32 // len 2m: graph edge ID of (v, p)
}

// newCSR flattens g's (sorted) adjacency lists. The reverse-port array is
// filled with one counter per vertex: scanning senders v in ascending order
// visits each receiver w's neighbors in exactly w's sorted port order, so
// cnt[w] is v's port at w — no map and no binary search, O(n+m) total.
func newCSR(g *graph.Graph) *csrAdj {
	n := g.NumVertices()
	c := &csrAdj{off: make([]int32, n+1)}
	total := 0
	for v := 0; v < n; v++ {
		c.off[v] = int32(total)
		total += g.Degree(v)
	}
	c.off[n] = int32(total)
	c.nbr = make([]int32, total)
	c.back = make([]int32, total)
	c.edge = make([]int32, total)
	cnt := make([]int32, n)
	for v := 0; v < n; v++ {
		base := c.off[v]
		inc := g.IncidentEdges(v)
		for p, w := range g.Neighbors(v) {
			c.nbr[base+int32(p)] = int32(w)
			c.edge[base+int32(p)] = int32(inc[p])
			c.back[base+int32(p)] = cnt[w]
			cnt[w]++
		}
	}
	return c
}

// maxDegree returns the largest number of ports of any vertex.
func (c *csrAdj) maxDegree() int {
	maxDeg := int32(0)
	for v := 1; v < len(c.off); v++ {
		maxDeg = max(maxDeg, c.off[v]-c.off[v-1])
	}
	return int(maxDeg)
}

// Simulator runs a Node program on every vertex of a graph.
type Simulator struct {
	g        *graph.Graph
	opts     Options
	ids      []int   // vertex -> ID
	idVertex []int32 // ID-1 -> vertex (IDs are a permutation of 1..n)
	csr      *csrAdj
}

// NewSimulator prepares a simulation over the given connected graph.
func NewSimulator(g *graph.Graph, opts Options) (*Simulator, error) {
	if g.NumVertices() == 0 {
		return nil, errors.New("congest: empty graph")
	}
	if !g.IsConnected() {
		return nil, errors.New("congest: graph must be connected")
	}
	n := g.NumVertices()
	ids := make([]int, n)
	for v := 0; v < n; v++ {
		ids[v] = v + 1
	}
	if opts.IDSeed != 0 {
		r := rand.New(rand.NewSource(opts.IDSeed))
		perm := r.Perm(n)
		for v := 0; v < n; v++ {
			ids[v] = perm[v] + 1
		}
	}
	idVertex := make([]int32, n)
	for v, id := range ids {
		idVertex[id-1] = int32(v)
	}
	return &Simulator{g: g, opts: opts, ids: ids, idVertex: idVertex, csr: newCSR(g)}, nil
}

// IDs returns a copy of the vertex -> identifier assignment.
func (s *Simulator) IDs() []int { return append([]int(nil), s.ids...) }

// VertexOfID returns the vertex with the given identifier, or -1. The
// lookup is O(1): IDs are a permutation of 1..n, so the inverse is a flat
// array built once in NewSimulator.
func (s *Simulator) VertexOfID(id int) int {
	if id < 1 || id > len(s.idVertex) {
		return -1
	}
	return int(s.idVertex[id-1])
}

// Run executes the protocol created by factory on every vertex until all
// nodes halt. factory receives the vertex index and must return a fresh Node
// (the vertex index is for instantiation only; protocols must not use it as
// knowledge — all runtime information flows through Env and messages).
//
// The run is simulated by a sharded engine (see engine.go): vertices are
// partitioned into contiguous shards, node programs execute shard-by-shard
// (on a persistent worker pool when Options.Parallel is set), and delivery
// is sharded by receiver with a deterministic merge in sender-vertex order,
// so sequential and parallel runs are bit-identical.
func (s *Simulator) Run(factory func(vertex int) Node) (Stats, error) {
	return s.startRun(factory).run()
}

// startRun builds the node views and a fresh engine for one run. Split from
// Run so the allocation-regression tests can drive the engine's round loop
// directly under AllocsPerRun.
func (s *Simulator) startRun(factory func(vertex int) Node) *engine {
	n := s.g.NumVertices()
	bandwidth := s.opts.bandwidth(n)

	nodes := make([]Node, n)
	for v := range nodes {
		nodes[v] = factory(v)
	}
	envs := s.buildEnvs(bandwidth)
	return newEngine(s, nodes, envs, bandwidth)
}

// buildEnvs builds the node-local views of every vertex on flat arenas: one
// Env array and one backing slice per port-indexed field, sliced per vertex
// along the CSR offsets, instead of 3n+1 small allocations. Per-port label
// maps are only materialized when the graph carries edge labels; readers
// index PortLabels[p][name], and a nil map reads as all-false.
func (s *Simulator) buildEnvs(bandwidth int) []*Env {
	n := s.g.NumVertices()
	ports := int(s.csr.off[n])
	envs := make([]*Env, n)
	envArr := make([]Env, n)
	nbrIDArena := make([]int, ports)
	weightArena := make([]int64, ports)
	labelArena := make([]map[string]bool, ports)
	vertexLabelNames := s.g.VertexLabelNames()
	edgeLabelNames := s.g.EdgeLabelNames()
	for v := 0; v < n; v++ {
		plo, phi := s.csr.off[v], s.csr.off[v+1]
		nbrIDs := nbrIDArena[plo:phi:phi]
		portWeight := weightArena[plo:phi:phi]
		portLabels := labelArena[plo:phi:phi]
		for p := int32(0); p < phi-plo; p++ {
			nbrIDs[p] = s.ids[s.csr.nbr[plo+p]]
			eid := int(s.csr.edge[plo+p])
			portWeight[p] = s.g.EdgeWeight(eid)
			if len(edgeLabelNames) > 0 {
				labels := make(map[string]bool, len(edgeLabelNames))
				for _, name := range edgeLabelNames {
					if s.g.HasEdgeLabel(name, eid) {
						labels[name] = true
					}
				}
				portLabels[p] = labels
			}
		}
		var labels map[string]bool
		if len(vertexLabelNames) > 0 {
			labels = make(map[string]bool, len(vertexLabelNames))
			for _, name := range vertexLabelNames {
				if s.g.HasVertexLabel(name, v) {
					labels[name] = true
				}
			}
		}
		envArr[v] = Env{
			ID:          s.ids[v],
			Degree:      int(phi - plo),
			NeighborIDs: nbrIDs,
			Bandwidth:   bandwidth,
			N:           n,
			Weight:      s.g.VertexWeight(v),
			Labels:      labels,
			PortWeight:  portWeight,
			PortLabels:  portLabels,
		}
		envs[v] = &envArr[v]
	}
	return envs
}
