package congest

import (
	"fmt"

	"repro/internal/congest/transport"
)

// SubEngine is one shard of the engine — the vertex range [lo, hi) of a
// K-way partition — run in its own process. Its round is the engine's two
// phases cut open at the process boundary: Send runs the shard's sender
// side and returns its buckets, which travel over the wire instead of to
// sibling shards; Receive runs the receiver side on the coordinator's merge.
// Both phases are the engine's own code, so a multi-process run is
// indistinguishable from a single-process one at any shard count.
type SubEngine struct {
	e  *engine
	sh *shard
}

// NewSubEngine builds the sub-engine for shard `index` of a `shards`-way
// partition of sim's graph. factory receives absolute vertex indices, like
// Simulator.Run's. withKinds turns on per-message trace metadata (sender
// tag + emission sequence number) and receiver trace events for the
// coordinator's trace merge.
func NewSubEngine(sim *Simulator, shards, index int, factory func(vertex int) Node, withKinds bool) (*SubEngine, error) {
	n := sim.g.NumVertices()
	if shards < 1 {
		return nil, fmt.Errorf("congest: shard count must be >= 1, got %d", shards)
	}
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("congest: shard index %d out of range [0,%d)", index, shards)
	}
	shardSize := (n + shards - 1) / shards
	lo := min(index*shardSize, n)
	hi := min(lo+shardSize, n)
	maxDeg := 0
	for v := lo; v < hi; v++ {
		maxDeg = max(maxDeg, sim.csr.degree(v))
	}
	size := hi - lo
	sh := newShard(lo, hi, shards, maxDeg)
	sh.nodes = make([]Node, size)
	for v := lo; v < hi; v++ {
		sh.nodes[v-lo] = factory(v)
	}
	bandwidth := sim.opts.bandwidth(n)
	sh.envs = sim.buildEnvs(lo, hi, bandwidth)
	sh.outs = make([][]Outgoing, size)
	sh.halted = make([]bool, size)
	sh.dones = make([]bool, size)
	sh.inboxes = [2][][]Incoming{make([][]Incoming, size), make([][]Incoming, size)}
	sh.reset()
	e := &engine{
		s:         sim,
		n:         n,
		bandwidth: bandwidth,
		unbounded: sim.opts.Unbounded,
		shards:    []*shard{sh},
		shardSize: shardSize,
		traced:    withKinds,
		corrupt:   sim.opts.CorruptProb,
	}
	e.faulty = e.corrupt > 0
	return &SubEngine{e: e, sh: sh}, nil
}

// Range returns the owned vertex range [lo, hi).
func (se *SubEngine) Range() (lo, hi int) { return se.sh.lo, se.sh.hi }

// Node returns the node program of an owned vertex.
func (se *SubEngine) Node(v int) Node { return se.sh.nodes[v-se.sh.lo] }

// Send runs the shard's sender side of the round: the node programs (Init in
// round 0), then validation of every outbox in sender-vertex order. It
// returns the messages bucketed by receiver shard, valid until the next Send
// call. On a validation failure it returns the offending vertex (the
// coordinator keeps the globally lowest one, as engine.firstError does) and
// the engine's error value.
func (se *SubEngine) Send(round int) (sub [][]transport.Msg, errVertex int, err error) {
	se.e.round = round
	se.e.sendShard(0)
	if se.sh.err != nil {
		return nil, se.sh.errV, se.sh.err
	}
	return se.sh.routes, -1, nil
}

// Receive runs the shard's receiver side of the round on the coordinator's
// merge: first the frame-delayed copies due this round, then the round's
// traffic, which MUST be concatenated over sender shards in shard-index
// order (global sender-vertex order), then compaction. It returns the
// round's REPORT. Message payloads alias the caller's buffers; like engine
// inboxes they are valid only until the node's next Round call.
func (se *SubEngine) Receive(round int, delayed, msgs []transport.Msg) (transport.Report, error) {
	for _, list := range [][]transport.Msg{delayed, msgs} {
		for _, m := range list {
			if err := se.checkMsg(m); err != nil {
				return transport.Report{}, err
			}
		}
	}
	e, sh := se.e, se.sh
	e.round = round
	e.beginDeliver(sh)
	for _, m := range delayed {
		e.deliverLate(sh, m, round)
	}
	e.deliver(sh, msgs)
	e.compact(sh)
	rep := transport.Report{
		Messages:   sh.messages,
		Bits:       sh.bits,
		MaxMsgBits: int32(sh.maxMsgBits),
		Lost:       sh.faults.Lost,
		Halted:     sh.halts,
	}
	for _, ev := range sh.events {
		if ev.Fault == "" {
			rep.Events = append(rep.Events, transport.Event{
				From: ev.From, Seq: ev.Seq, To: ev.To, Port: ev.Port, Bits: ev.Bits, Kind: ev.Kind,
			})
		}
	}
	sh.messages, sh.bits, sh.maxMsgBits, sh.faults = 0, 0, 0, FaultStats{}
	return rep, nil
}

// checkMsg bounds-checks a wire message against the topology before any
// slice indexing, so a corrupt or hostile frame yields an error instead of
// a panic.
func (se *SubEngine) checkMsg(m transport.Msg) error {
	lo, hi := se.sh.lo, se.sh.hi
	if m.To < int32(lo) || m.To >= int32(hi) {
		return fmt.Errorf("congest: delivered message for vertex %d outside shard range [%d,%d)", m.To, lo, hi)
	}
	if m.From < 0 || m.From >= int32(se.e.n) {
		return fmt.Errorf("congest: delivered message from invalid vertex %d", m.From)
	}
	if m.Port < 0 || int(m.Port) >= se.e.s.csr.degree(int(m.To)) {
		return fmt.Errorf("congest: delivered message for vertex %d on invalid port %d", m.To, m.Port)
	}
	return nil
}
