package protocols

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/congest"
)

// This file implements reliable delivery over a faulty CONGEST network: a
// protocol adapter that wraps any congest.Node and restores the
// round-synchronous, loss-free semantics the wrapped protocol assumes, on
// top of a network that drops, duplicates, reorders, and loses messages to
// crash-restart outages (see internal/faults).
//
// The construction is a synchronizer over per-edge ARQ links:
//
//   - Record layer (round synchronization). The inner node runs in virtual
//     rounds. For every virtual round vr and every port, the adapter emits a
//     record — the frames the inner node sent on that port at vr, possibly
//     empty, plus a halt flag on the inner node's final round — and advances
//     the inner node to vr+1 only once every port has delivered its peer's
//     vr record (ports whose peer's inner node already halted count as
//     permanently empty). Records are the barrier: loss can delay a virtual
//     round but never lets two neighbors observe different histories.
//
//   - ARQ layer (per-edge reliability). Record bytes stream over each edge
//     direction as sequence-numbered chunks under stop-and-wait ARQ:
//     one chunk in flight, retransmitted every Timeout rounds until the
//     peer's cumulative ack covers it, duplicates discarded by sequence
//     number, at most MaxRetries retransmissions before the adapter
//     declares the edge unrecoverable. Every ARQ frame is built by the
//     wire.go helpers and shipped through a ByteStreamSender, so the
//     per-edge bandwidth cap is enforced by construction.
//
//   - Failure propagation. When a chunk exhausts its retry budget the node
//     poisons the run: it floods poison frames (carrying the offending edge
//     and round) on every port for PoisonRounds rounds and halts; receivers
//     adopt and re-flood. The driver turns any poisoned node into a typed
//     *UnrecoverableError wrapping ErrUnrecoverable.
//
//   - Termination. A node whose inner protocol has halted keeps its ARQ
//     links alive — acking retransmissions, flushing its own chunks — and
//     only halts for real after Linger consecutive silent rounds, so a peer
//     still retransmitting is never stranded against a dead edge.
//
// Determinism: the adapter adds no randomness. Its entire state is a
// function of the frame arrival order, which the engine keeps deterministic
// (fault plans are keyed by message, not by delivery order), so a replayed
// fault seed replays the reliable run bit-for-bit at any worker count.

// ErrUnrecoverable is reported (wrapped by *UnrecoverableError) when
// injected faults exceed what retransmission can mask.
var ErrUnrecoverable = errors.New("protocols: reliable delivery failed: fault budget exceeded")

// UnrecoverableError carries the first edge and round on which the reliable
// adapter gave up.
type UnrecoverableError struct {
	FromID int // sender-side node ID of the failed edge direction
	ToID   int // receiver-side node ID
	Round  int // physical round when the retry budget ran out
	Reason string
}

func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("%v (edge %d->%d, round %d: %s)",
		ErrUnrecoverable, e.FromID, e.ToID, e.Round, e.Reason)
}

// Unwrap makes errors.Is(err, ErrUnrecoverable) work.
func (e *UnrecoverableError) Unwrap() error { return ErrUnrecoverable }

// ReliableMinFrameBytes is the smallest physical frame budget the adapter
// can work with: the 4-byte stream length prefix, the 13-byte chunk header
// (flags, ack, seq, chunk length), and at least 7 chunk bytes.
const ReliableMinFrameBytes = 24

// reliableTargetFrameBytes is the frame budget ReliableBandwidthFactor aims
// for: large enough that ARQ header overhead stays below ~50%.
const reliableTargetFrameBytes = 32

// ReliableBandwidthFactor returns a congest.Options.BandwidthFactor giving
// an n-node network physical frames of at least reliableTargetFrameBytes,
// the headroom the reliable adapter's framing needs. The wrapped protocol
// still sees its own (default-factor) bandwidth — see
// ReliableConfig.InnerBandwidthFactor — so the boost pays for ARQ headers
// and record barriers, not for a faster inner protocol.
func ReliableBandwidthFactor(n int) int {
	logn := bits.Len(uint(n - 1))
	if logn < 1 {
		logn = 1
	}
	return (reliableTargetFrameBytes*8 + logn - 1) / logn
}

// ReliableConfig tunes the adapter. The zero value selects the defaults.
type ReliableConfig struct {
	// InnerBandwidthFactor is the bandwidth factor presented to the wrapped
	// protocol (0 means congest.DefaultBandwidthFactor): the inner node
	// behaves exactly as it would on a fault-free network with that budget,
	// whatever the physical budget is.
	InnerBandwidthFactor int
	// Timeout is the number of physical rounds between retransmissions of
	// an unacked chunk (0 means 6).
	Timeout int
	// MaxRetries bounds retransmissions per chunk; one more loss is an
	// unrecoverable edge (0 means 16).
	MaxRetries int
	// Linger is how many consecutive silent rounds a finished node waits
	// before halting, so peers' retransmissions still find it alive
	// (0 means 64; must exceed Timeout plus the network's reorder window).
	Linger int
	// PoisonRounds is how many rounds a failed node floods poison frames
	// before halting (0 means 32).
	PoisonRounds int
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.InnerBandwidthFactor == 0 {
		c.InnerBandwidthFactor = congest.DefaultBandwidthFactor
	}
	if c.Timeout == 0 {
		c.Timeout = 6
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 16
	}
	if c.Linger == 0 {
		c.Linger = 64
	}
	if c.PoisonRounds == 0 {
		c.PoisonRounds = 32
	}
	return c
}

// RelStats aggregates the reliable adapter's work (per node; the driver
// sums them across the run).
type RelStats struct {
	// VirtualRounds is the number of inner-protocol rounds completed (the
	// driver keeps the maximum over nodes, the others are summed).
	VirtualRounds int
	// Chunks is the number of distinct ARQ chunks first-transmitted.
	Chunks int64
	// Retransmits is the number of chunk retransmissions (what loss cost).
	Retransmits int64
	// DupChunks is the number of duplicate chunks discarded on receive
	// (retransmissions and injected duplicates that were not needed).
	DupChunks int64
	// AckFrames is the number of standalone ack frames (no chunk aboard).
	AckFrames int64
	// Poisoned counts nodes that observed an unrecoverable failure.
	Poisoned int
}

// Add merges two RelStats (VirtualRounds by maximum, counters by sum).
func (a RelStats) Add(b RelStats) RelStats {
	if b.VirtualRounds > a.VirtualRounds {
		a.VirtualRounds = b.VirtualRounds
	}
	a.Chunks += b.Chunks
	a.Retransmits += b.Retransmits
	a.DupChunks += b.DupChunks
	a.AckFrames += b.AckFrames
	a.Poisoned += b.Poisoned
	return a
}

// KindReliable tags rounds in which the adapter sent only ARQ control
// traffic (retransmissions, acks, poison) with no inner-protocol progress.
const KindReliable = "rel"

// ARQ frame flags.
const (
	relFlagChunk  = 1 << 0 // frame carries a chunk (ack+seq+bytes follow)
	relFlagPoison = 1 << 1 // frame carries a poison report instead
)

// Record flags.
const recFlagHalt = 1 << 0 // the sending inner node halted at this round

// Poison reasons.
const (
	reasonRetries   = 1 // retry budget exhausted
	reasonMalformed = 2 // undecodable ARQ frame
	reasonSeqGap    = 3 // chunk sequence gap (impossible under stop-and-wait)
)

func reasonString(code uint8) string {
	switch code {
	case reasonRetries:
		return "retry budget exhausted"
	case reasonMalformed:
		return "malformed reliable frame"
	case reasonSeqGap:
		return "chunk sequence gap"
	}
	return fmt.Sprintf("reason %d", code)
}

// relPort is the adapter's per-port (per edge direction) state.
type relPort struct {
	phys congest.ByteStreamSender   // physical frames out (one per round)
	rx   congest.ByteStreamReceiver // physical frames in

	// Sender side.
	pending  []byte // record bytes not yet chunked
	inflight []byte // current stop-and-wait chunk (nil when idle)
	seq      uint32 // sequence number of inflight
	nextSeq  uint32
	lastSend int // physical round of the last (re)transmission
	retries  int

	// Receiver side.
	want      uint32 // next expected chunk sequence number
	recordBuf []byte // accepted chunk bytes awaiting record parsing
	nextVr    int    // next record vround expected from the peer
	records   []portRecord
	sendAck   bool // owe the peer an ack (fresh or duplicate chunk seen)

	peerHalted bool // peer's inner node halted...
	peerHaltVr int  // ...at this virtual round
}

type portRecord struct {
	vr      int
	halt    bool
	payload []byte
}

// idle reports whether this direction has nothing left to deliver.
func (p *relPort) idle() bool { return p.inflight == nil && len(p.pending) == 0 }

// Reliable wraps an inner congest.Node with reliable delivery. Build with
// NewReliable; read the adapter's outcome with RelResult.
type Reliable struct {
	inner congest.Node
	cfg   ReliableConfig

	env      *congest.Env
	innerEnv congest.Env
	ports    []relPort
	round    int

	vr        int // next virtual round to run on the inner node
	innerDone bool
	innerIn   []congest.Incoming // scratch: inner inbox build

	lastTraffic int

	poisoned   bool
	poisonLeft int
	fail       *UnrecoverableError

	stats RelStats
}

// NewReliable wraps inner with the reliable-delivery adapter.
func NewReliable(inner congest.Node, cfg ReliableConfig) *Reliable {
	return &Reliable{inner: inner, cfg: cfg.withDefaults()}
}

// RelResult returns the adapter outcome for a node built by NewReliable
// (ok=false for unwrapped nodes). fail is non-nil iff the node poisoned the
// run or absorbed another node's poison.
func RelResult(n congest.Node) (stats RelStats, fail *UnrecoverableError, ok bool) {
	rel, isRel := n.(*Reliable)
	if !isRel {
		return RelStats{}, nil, false
	}
	return rel.stats, rel.fail, true
}

// chunkBytes is the chunk capacity of one physical frame: the budget minus
// the stream length prefix (4) and the flags/ack/seq/length header (13).
func (r *Reliable) chunkBytes() int {
	return congest.FrameBudgetBytes(r.env.Bandwidth) - 17
}

// Init implements congest.Node: runs the inner node's Init as virtual round
// 0 and queues its output records.
func (r *Reliable) Init(env *congest.Env) []congest.Outgoing {
	r.env = env
	r.innerEnv = *env
	r.innerEnv.Bandwidth = congest.Options{BandwidthFactor: r.cfg.InnerBandwidthFactor}.BandwidthBits(env.N)
	r.ports = make([]relPort, env.Degree)

	r.innerEnv.Round = 0
	outs := r.inner.Init(&r.innerEnv)
	env.Tag(r.innerEnv.Kind())
	r.queueRecords(0, outs, false)
	r.vr = 1
	return r.emit()
}

// Round implements congest.Node.
func (r *Reliable) Round(env *congest.Env, inbox []congest.Incoming) ([]congest.Outgoing, bool) {
	r.env = env
	r.round = env.Round
	if len(inbox) > 0 {
		r.lastTraffic = env.Round
	}
	for _, in := range inbox {
		r.ports[in.Port].rx.Feed(in.Payload)
	}
	for pi := range r.ports {
		r.drainPort(pi)
	}
	if r.poisoned {
		return r.poisonStep()
	}
	advanced := r.advanceInner()
	if r.poisoned {
		return r.poisonStep()
	}
	out := r.emit()
	if r.poisoned {
		// emit detected an exhausted retry budget; switch to poison flooding
		// from this very round.
		return r.poisonStep()
	}
	if !advanced {
		env.Tag(KindReliable)
	}
	return out, r.maybeHalt()
}

// drainPort consumes every complete ARQ frame received on the port.
func (r *Reliable) drainPort(pi int) {
	p := &r.ports[pi]
	for {
		msg, ok := p.rx.Pop()
		if !ok {
			return
		}
		rd := &wireReader{buf: msg}
		flags, err := rd.u8()
		if err != nil {
			r.poisonLocal(pi, reasonMalformed)
			return
		}
		if flags&relFlagPoison != 0 {
			r.absorbPoison(rd)
			continue
		}
		ack, err := rd.u32()
		if err != nil {
			r.poisonLocal(pi, reasonMalformed)
			return
		}
		seq, err := rd.u32()
		if err != nil {
			r.poisonLocal(pi, reasonMalformed)
			return
		}
		// Cumulative ack: the inflight chunk is covered once the peer
		// expects a later sequence number.
		if p.inflight != nil && ack > p.seq {
			p.inflight = nil
			p.retries = 0
		}
		if flags&relFlagChunk == 0 {
			continue
		}
		chunk, err := rd.bytesView() // appended to recordBuf before the next Feed
		if err != nil {
			r.poisonLocal(pi, reasonMalformed)
			return
		}
		switch {
		case seq == p.want:
			p.want++
			p.recordBuf = append(p.recordBuf, chunk...)
			p.sendAck = true
			if !r.parseRecords(pi) {
				return
			}
		case seq < p.want:
			// Retransmission or injected duplicate of an accepted chunk:
			// discard, but re-ack (the peer keeps retrying until it hears).
			p.sendAck = true
			r.stats.DupChunks++
		default:
			// Stop-and-wait never exposes a gap; seeing one means the
			// stream itself is broken.
			r.poisonLocal(pi, reasonSeqGap)
			return
		}
	}
}

// parseRecords extracts complete records from the port's accepted byte
// stream. Returns false when it poisoned the run.
func (r *Reliable) parseRecords(pi int) bool {
	p := &r.ports[pi]
	for {
		if len(p.recordBuf) < 9 {
			return true
		}
		rd := &wireReader{buf: p.recordBuf}
		vr32, err := rd.u32()
		if err != nil {
			return true
		}
		fl, err := rd.u8()
		if err != nil {
			return true
		}
		payload, err := rd.bytes()
		if err != nil {
			// Payload not fully arrived yet.
			return true
		}
		p.recordBuf = rd.buf
		vr := int(vr32)
		if vr != p.nextVr {
			r.poisonLocal(pi, reasonSeqGap)
			return false
		}
		p.nextVr++
		halt := fl&recFlagHalt != 0
		p.records = append(p.records, portRecord{vr: vr, halt: halt, payload: payload})
		if halt {
			p.peerHalted = true
			p.peerHaltVr = vr
			// Nothing we queue from here on will ever be read: the peer's
			// inner node is done. Dropping our unsent bytes mirrors the raw
			// engine, which silently drops messages to halted nodes.
			p.pending = p.pending[:0]
			p.inflight = nil
		}
	}
}

// advanceInner runs every virtual round whose barrier is satisfied; reports
// whether at least one ran.
func (r *Reliable) advanceInner() bool {
	advanced := false
	for !r.innerDone && !r.poisoned {
		need := r.vr - 1
		ready := true
		for pi := range r.ports {
			p := &r.ports[pi]
			if len(p.records) > 0 && p.records[0].vr == need {
				continue
			}
			if p.peerHalted && p.peerHaltVr < need {
				continue // permanently silent: an empty record forever
			}
			ready = false
			break
		}
		if !ready {
			break
		}
		inbox := r.innerIn[:0]
		for pi := range r.ports {
			p := &r.ports[pi]
			if len(p.records) > 0 && p.records[0].vr == need {
				rec := p.records[0]
				p.records = p.records[1:]
				if len(rec.payload) > 0 {
					inbox = append(inbox, congest.Incoming{Port: pi, Payload: rec.payload})
				}
			}
		}
		r.innerIn = inbox[:0]
		r.innerEnv.Round = r.vr
		outs, done := r.inner.Round(&r.innerEnv, inbox)
		r.env.Tag(r.innerEnv.Kind())
		r.queueRecords(r.vr, outs, done)
		r.stats.VirtualRounds = r.vr
		r.vr++
		advanced = true
		if done {
			r.innerDone = true
		}
	}
	return advanced
}

// queueRecords encodes one record per open port for the given virtual round
// (empty records included — they are the synchronization barrier) and
// appends it to the port's pending ARQ bytes.
func (r *Reliable) queueRecords(vr int, outs []congest.Outgoing, halt bool) {
	var flags uint8
	if halt {
		flags |= recFlagHalt
	}
	for pi := range r.ports {
		p := &r.ports[pi]
		if p.peerHalted {
			continue
		}
		w := &wireWriter{}
		w.u32(uint32(vr))
		w.u8(flags)
		w.bytes(r.portPayload(outs, pi))
		p.pending = append(p.pending, w.buf...)
	}
}

// portPayload concatenates the inner node's outgoing frames for one port
// (Port -1 means every port, mirroring the engine's broadcast expansion).
func (r *Reliable) portPayload(outs []congest.Outgoing, pi int) []byte {
	var payload []byte
	for _, o := range outs {
		if o.Port == pi || o.Port == -1 {
			payload = append(payload, o.Payload...)
		}
	}
	return payload
}

// emit runs the per-port ARQ send phase: retransmit on timeout, launch the
// next chunk when the link is free, or send a bare ack when one is owed.
func (r *Reliable) emit() []congest.Outgoing {
	var out []congest.Outgoing
	budget := congest.FrameBudgetBytes(r.env.Bandwidth)
	for pi := range r.ports {
		p := &r.ports[pi]
		sendChunk := false
		switch {
		case p.inflight != nil:
			if r.round-p.lastSend >= r.cfg.Timeout {
				p.retries++
				if p.retries > r.cfg.MaxRetries {
					r.poisonLocal(pi, reasonRetries)
					return nil
				}
				r.stats.Retransmits++
				sendChunk = true
			}
		case len(p.pending) > 0:
			k := r.chunkBytes()
			if k > len(p.pending) {
				k = len(p.pending)
			}
			p.inflight = append([]byte(nil), p.pending[:k]...)
			p.pending = p.pending[k:]
			p.seq = p.nextSeq
			p.nextSeq++
			p.retries = 0
			r.stats.Chunks++
			sendChunk = true
		}
		if !sendChunk && !p.sendAck {
			continue
		}
		w := &wireWriter{}
		if sendChunk {
			w.u8(relFlagChunk)
			w.u32(p.want)
			w.u32(p.seq)
			w.bytes(p.inflight)
			p.lastSend = r.round
		} else {
			w.u8(0)
			w.u32(p.want)
			w.u32(0)
			r.stats.AckFrames++
		}
		p.sendAck = false
		p.phys.Push(w.buf)
		frame, ok := p.phys.NextFrame(budget)
		if ok {
			out = append(out, congest.Outgoing{Port: pi, Payload: frame})
		}
	}
	return out
}

// maybeHalt: a node halts once its inner protocol is done, every link has
// drained, and the network has been silent toward it for Linger rounds (so
// no peer can still be retransmitting into a void).
func (r *Reliable) maybeHalt() bool {
	if !r.innerDone {
		return false
	}
	for pi := range r.ports {
		if !r.ports[pi].idle() {
			return false
		}
	}
	if r.env.Degree == 0 {
		return true
	}
	return r.round-r.lastTraffic >= r.cfg.Linger
}

// poisonLocal records a locally detected unrecoverable failure on port pi.
func (r *Reliable) poisonLocal(pi int, reason uint8) {
	if r.poisoned {
		return
	}
	r.startPoison(&UnrecoverableError{
		FromID: r.env.ID,
		ToID:   r.env.NeighborIDs[pi],
		Round:  r.round,
		Reason: reasonString(reason),
	})
}

// absorbPoison adopts a poison report received from a neighbor.
func (r *Reliable) absorbPoison(rd *wireReader) {
	from, err := rd.u32()
	if err != nil {
		return
	}
	to, err := rd.u32()
	if err != nil {
		return
	}
	round, err := rd.u32()
	if err != nil {
		return
	}
	reason, err := rd.u8()
	if err != nil {
		return
	}
	if r.poisoned {
		return
	}
	r.startPoison(&UnrecoverableError{
		FromID: int(from),
		ToID:   int(to),
		Round:  int(round),
		Reason: reasonString(reason),
	})
}

func (r *Reliable) startPoison(fail *UnrecoverableError) {
	r.poisoned = true
	r.poisonLeft = r.cfg.PoisonRounds
	r.fail = fail
	r.stats.Poisoned = 1
}

// poisonStep floods the poison report on every port and halts once the
// flooding budget is spent (re-flooding masks dropped poison frames; the
// engine round limit is the last-resort backstop).
func (r *Reliable) poisonStep() ([]congest.Outgoing, bool) {
	r.env.Tag(KindReliable)
	var out []congest.Outgoing
	budget := congest.FrameBudgetBytes(r.env.Bandwidth)
	for pi := range r.ports {
		p := &r.ports[pi]
		w := &wireWriter{}
		w.u8(relFlagPoison)
		w.u32(uint32(r.fail.FromID))
		w.u32(uint32(r.fail.ToID))
		w.u32(uint32(r.fail.Round))
		w.u8(r.poisonReasonCode())
		p.phys.Push(w.buf)
		frame, ok := p.phys.NextFrame(budget)
		if ok {
			out = append(out, congest.Outgoing{Port: pi, Payload: frame})
		}
	}
	r.poisonLeft--
	return out, r.poisonLeft <= 0
}

// poisonReasonCode maps the stored failure back to its wire code.
func (r *Reliable) poisonReasonCode() uint8 {
	switch r.fail.Reason {
	case reasonString(reasonRetries):
		return reasonRetries
	case reasonString(reasonMalformed):
		return reasonMalformed
	case reasonString(reasonSeqGap):
		return reasonSeqGap
	}
	return reasonMalformed
}
