package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/congest"
	"repro/internal/congest/transport"
	"repro/internal/graph"
	"repro/internal/protocols"
)

// workerOutputs is the OUTPUTS frame body (JSON): one shard's contribution
// to the run result. Outputs covers the shard's vertex range [lo, hi) in
// order; the coordinator concatenates shards in index order to recover the
// vertex-indexed slice the in-process driver builds.
type workerOutputs struct {
	Rel  protocols.RelStats            `json:"rel"`
	Fail *protocols.UnrecoverableError `json:"fail,omitempty"`
	// OutputErr/OutputErrVertex report the first Result() failure in vertex
	// order (the in-process driver stops at the first).
	OutputErr       string             `json:"output_err,omitempty"`
	OutputErrVertex int                `json:"output_err_vertex,omitempty"`
	Outputs         []protocols.Output `json:"outputs,omitempty"`
	// Checksum is the heartbeat workload's partial state digest.
	Checksum uint64 `json:"checksum,omitempty"`
}

// buildConfig resolves the spec against the graph exactly as the in-process
// driver normalizes its Config: label vocabularies default to the graph's,
// the 32-label cap applies, and reliable runs must clear the minimum frame
// budget. Worker and coordinator both call this, so both sides reject a bad
// run the same way.
func buildConfig(spec Spec, g *graph.Graph) (protocols.Config, error) {
	cfg, err := spec.Resolve()
	if err != nil {
		return cfg, err
	}
	if spec.Workload != "" {
		return cfg, nil
	}
	if cfg.VertexLabelNames == nil {
		cfg.VertexLabelNames = g.VertexLabelNames()
	}
	if cfg.EdgeLabelNames == nil {
		cfg.EdgeLabelNames = g.EdgeLabelNames()
	}
	if len(cfg.VertexLabelNames) > 32 || len(cfg.EdgeLabelNames) > 32 {
		return cfg, fmt.Errorf("shard: at most 32 vertex and edge labels supported")
	}
	if cfg.Reliable {
		n := g.NumVertices()
		if got := congest.FrameBudgetBytes(spec.Options().BandwidthBits(n)); got < protocols.ReliableMinFrameBytes {
			return cfg, fmt.Errorf("shard: reliable delivery needs a frame budget of at least %d bytes, got %d",
				protocols.ReliableMinFrameBytes, got)
		}
	}
	return cfg, nil
}

// nodeFactory builds the per-vertex node constructor for the spec.
func nodeFactory(spec Spec, cfg protocols.Config) func(v int) congest.Node {
	if spec.Workload == WorkloadHeartbeat {
		rounds := spec.HeartbeatRounds
		if rounds <= 0 {
			rounds = DefaultHeartbeatRounds
		}
		return func(v int) congest.Node { return &heartbeatNode{limit: rounds} }
	}
	if cfg.Reliable {
		innerCfg := cfg
		innerCfg.Reliable = false
		return func(v int) congest.Node {
			return protocols.NewReliable(protocols.NewNode(innerCfg), cfg.Rel)
		}
	}
	return func(v int) congest.Node { return protocols.NewNode(cfg) }
}

// classifyBatchErr maps a sub-engine validation error to its wire kind.
func classifyBatchErr(err error) uint8 {
	switch {
	case errors.Is(err, congest.ErrMessageTooLarge):
		return transport.BatchErrTooLarge
	case errors.Is(err, congest.ErrBandwidthExceeded):
		return transport.BatchErrBandwidth
	default:
		return transport.BatchErrBadPort
	}
}

// workerSession is one worker's side of a run.
type workerSession struct {
	index int
	r     *transport.Reader
	w     *transport.Writer
	spec  Spec
	se    *congest.SubEngine
}

// RunWorker executes the worker side of one session on conn: handshake,
// round loop, outputs. It returns nil on a clean session end — including a
// coordinator-initiated ABORT, whose cause the coordinator already owns —
// and an error only for transport or protocol violations this side
// detected. conn is closed on return.
func RunWorker(conn io.ReadWriteCloser, index int) error {
	defer conn.Close()
	ws := &workerSession{
		index: index,
		r:     transport.NewReader(conn, 0, nil),
		w:     transport.NewWriter(conn, nil),
	}
	if err := ws.w.WriteFrame(transport.Frame{
		Type:    transport.TypeHello,
		Payload: transport.Hello{Proto: transport.Version, Shard: uint32(index)}.Encode(),
	}); err != nil {
		return err
	}
	if err := ws.handshake(); err != nil {
		return err
	}
	return ws.roundLoop()
}

// abort sends an ABORT frame with the error text and returns the error.
// Best-effort: if the peer is gone the write failure is secondary.
func (ws *workerSession) abort(err error) error {
	_ = ws.w.WriteFrame(transport.Frame{
		Type:    transport.TypeAbort,
		Payload: transport.Abort{Text: err.Error()}.Encode(),
	})
	return err
}

// handshake consumes CONFIG, rebuilds the run, verifies the digest, and
// answers READY.
func (ws *workerSession) handshake() error {
	f, err := ws.r.ReadFrame()
	if err != nil {
		return err
	}
	if f.Type == transport.TypeAbort {
		return nil
	}
	if f.Type != transport.TypeConfig {
		return ws.abort(fmt.Errorf("shard: worker expected CONFIG, got frame type %d", f.Type))
	}
	cfg, err := transport.DecodeConfig(f.Payload)
	if err != nil {
		return ws.abort(fmt.Errorf("shard: bad CONFIG: %w", err))
	}
	if digest := Digest(cfg.Spec, cfg.Graph); digest != cfg.Digest {
		return ws.abort(fmt.Errorf("shard: digest mismatch: coordinator sent %x, worker computed %x", cfg.Digest[:4], digest[:4]))
	}
	spec, err := DecodeSpec(cfg.Spec)
	if err != nil {
		return ws.abort(err)
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(cfg.Graph))
	if err != nil {
		return ws.abort(fmt.Errorf("shard: bad graph: %w", err))
	}
	shards := int(cfg.Shards)
	if shards < 1 || ws.index >= shards {
		return ws.abort(fmt.Errorf("shard: worker index %d outside %d shards", ws.index, shards))
	}
	n := g.NumVertices()
	if want := uint32((n + shards - 1) / shards); cfg.ShardSize != want {
		return ws.abort(fmt.Errorf("shard: CONFIG shard size %d, want %d", cfg.ShardSize, want))
	}
	pcfg, err := buildConfig(spec, g)
	if err != nil {
		return ws.abort(err)
	}
	sim, err := congest.NewSimulator(g, spec.Options())
	if err != nil {
		return ws.abort(err)
	}
	se, err := congest.NewSubEngine(sim, shards, ws.index, nodeFactory(spec, pcfg), spec.Trace)
	if err != nil {
		return ws.abort(err)
	}
	ws.spec = spec
	ws.se = se
	return ws.w.WriteFrame(transport.Frame{
		Type:    transport.TypeReady,
		Payload: transport.Ready{Digest: cfg.Digest}.Encode(),
	})
}

// roundLoop serves STEP/FINISH/ABORT until the session ends. The loop has
// no local exit condition by design: the coordinator owns termination, and
// a vanished coordinator surfaces as a read error when the transport
// closes.
func (ws *workerSession) roundLoop() error {
	for {
		f, err := ws.r.ReadFrame()
		if err != nil {
			return err
		}
		switch f.Type {
		case transport.TypeStep:
			if err := ws.step(int(f.Round)); err != nil {
				return err
			}
		case transport.TypeFinish:
			return ws.sendOutputs()
		case transport.TypeAbort:
			return nil
		default:
			return ws.abort(fmt.Errorf("shard: worker expected STEP/FINISH/ABORT, got frame type %d", f.Type))
		}
	}
}

// step runs one round: the sub-engine's sender side, the validated batch
// out, the coordinator's merge in, the receiver side, the report out.
func (ws *workerSession) step(round int) error {
	sub, errV, serr := ws.se.Send(round)
	batch := transport.Batch{ErrVertex: -1, Sub: sub}
	if serr != nil {
		batch = transport.Batch{
			ErrKind:   classifyBatchErr(serr),
			ErrVertex: int32(errV),
			ErrText:   serr.Error(),
		}
	}
	if err := ws.w.WriteFrame(transport.Frame{
		Type: transport.TypeBatch, Round: uint32(round), Payload: batch.Encode(),
	}); err != nil {
		return err
	}
	if serr != nil {
		// The coordinator will abort the run; wait for it at the loop top.
		return nil
	}
	f, err := ws.r.ReadFrame()
	if err != nil {
		return err
	}
	switch f.Type {
	case transport.TypeAbort:
		return nil
	case transport.TypeDeliver:
	default:
		return ws.abort(fmt.Errorf("shard: worker expected DELIVER, got frame type %d", f.Type))
	}
	if int(f.Round) != round {
		return ws.abort(fmt.Errorf("shard: DELIVER for round %d during round %d", f.Round, round))
	}
	dl, err := transport.DecodeDeliver(f.Payload)
	if err != nil {
		return ws.abort(fmt.Errorf("shard: bad DELIVER: %w", err))
	}
	report, err := ws.se.Receive(round, dl.Delayed, dl.Msgs)
	if err != nil {
		return ws.abort(err)
	}
	return ws.w.WriteFrame(transport.Frame{
		Type: transport.TypeReport, Round: uint32(round), Payload: report.Encode(),
	})
}

// sendOutputs answers FINISH with the shard's result contribution.
func (ws *workerSession) sendOutputs() error {
	lo, hi := ws.se.Range()
	var out workerOutputs
	if ws.spec.Workload == WorkloadHeartbeat {
		for v := lo; v < hi; v++ {
			out.Checksum += heartbeatDigest(v, ws.se.Node(v).(*heartbeatNode).acc)
		}
	} else {
		for v := lo; v < hi; v++ {
			node := ws.se.Node(v)
			if ws.spec.Reliable {
				st, fail, ok := protocols.RelResult(node)
				if ok {
					out.Rel = out.Rel.Add(st)
					if fail != nil && out.Fail == nil {
						out.Fail = fail
					}
				}
			}
		}
		if out.Fail == nil {
			for v := lo; v < hi; v++ {
				res, err := protocols.Result(ws.se.Node(v))
				if err != nil {
					out.OutputErr = err.Error()
					out.OutputErrVertex = v
					out.Outputs = nil
					break
				}
				out.Outputs = append(out.Outputs, res)
			}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return ws.abort(fmt.Errorf("shard: encoding outputs: %w", err))
	}
	return ws.w.WriteFrame(transport.Frame{
		Type:    transport.TypeOutputs,
		Payload: transport.Outputs{Data: data}.Encode(),
	})
}

// DefaultHeartbeatRounds matches experiment S1's workload length.
const DefaultHeartbeatRounds = 8

// heartbeatNode is the S7 workload: broadcast a 2-byte running accumulator
// each round for a fixed number of rounds, then halt — the same node
// program as experiment S1's, so S7's multiproc rows are comparable to S1's
// in-process ones. Payload and outbox live in the struct, so the workload
// allocates nothing per round and the measurement isolates transport cost.
type heartbeatNode struct {
	limit  int
	rounds int
	acc    int
	buf    [2]byte
	out    [1]congest.Outgoing
}

func (h *heartbeatNode) emit() []congest.Outgoing {
	h.buf[0], h.buf[1] = byte(h.acc), byte(h.acc>>8)
	h.out[0] = congest.Broadcast(congest.Message(h.buf[:]))
	return h.out[:]
}

func (h *heartbeatNode) Init(env *congest.Env) []congest.Outgoing {
	h.acc = env.ID & 0xFFFF
	return h.emit()
}

func (h *heartbeatNode) Round(env *congest.Env, inbox []congest.Incoming) ([]congest.Outgoing, bool) {
	for _, in := range inbox {
		h.acc += int(in.Payload[0]) | int(in.Payload[1])<<8
	}
	h.acc &= 0xFFFF
	h.rounds++
	if h.rounds >= h.limit {
		return nil, true
	}
	return h.emit(), false
}

// heartbeatDigest mixes one node's final accumulator into a
// position-sensitive but partition-independent digest: per-vertex hashes
// sum (mod 2^64), so K workers' partial sums combine to the same value the
// in-process twin computes over all vertices.
func heartbeatDigest(v, acc int) uint64 {
	z := uint64(v)<<20 ^ uint64(acc&0xFFFF)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// RunHeartbeatInProcess is the single-process twin of a heartbeat-workload
// multiproc run: same nodes, same engine, same digest formula. S7 uses it
// as the baseline the multiproc rows must match.
func RunHeartbeatInProcess(g *graph.Graph, opts congest.Options, rounds int) (congest.Stats, uint64, error) {
	if rounds <= 0 {
		rounds = DefaultHeartbeatRounds
	}
	n := g.NumVertices()
	sim, err := congest.NewSimulator(g, opts)
	if err != nil {
		return congest.Stats{}, 0, err
	}
	nodes := make([]heartbeatNode, n)
	stats, err := sim.Run(func(v int) congest.Node {
		nodes[v] = heartbeatNode{limit: rounds}
		return &nodes[v]
	})
	if err != nil {
		return stats, 0, err
	}
	var sum uint64
	for v := range nodes {
		sum += heartbeatDigest(v, nodes[v].acc)
	}
	return stats, sum, nil
}
