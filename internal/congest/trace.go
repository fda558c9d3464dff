package congest

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// RunInfo describes a simulation to a Tracer before round 0.
type RunInfo struct {
	N         int // nodes
	Edges     int // undirected edges
	Bandwidth int // per-edge per-round budget in bits
}

// SendEvent describes one message crossing one edge. Round is the round in
// which the message was sent (0 = Init); delivery happens at the start of
// Round+1. Port is the *receiver's* port the message arrives on. Kind is the
// protocol-supplied tag of the sending node at send time (see Env.Tag), or
// "" when the protocol does not tag its traffic.
type SendEvent struct {
	Round    int
	FromID   int
	ToID     int
	Port     int
	SizeBits int
	Kind     string
}

// Tracer observes a simulation at round granularity. All hooks are invoked
// from the goroutine driving the run, never from the worker pool, so
// implementations need no locking. Send, fault and halt events are buffered
// during a round and replayed at its end (see replayRound). A nil Tracer
// in Options disables tracing with no measurable cost (a single pointer
// comparison per hook site).
type Tracer interface {
	// RunStart fires once, before Init (round 0) executes.
	RunStart(info RunInfo)
	// RoundStart fires before the nodes of the given round execute
	// (round 0 is the Init phase).
	RoundStart(round int)
	// Send fires for every message accepted for delivery (messages to
	// already-halted nodes are dropped uncounted, matching Stats).
	Send(e SendEvent)
	// NodeHalted fires when the node with the given ID halts in the round.
	NodeHalted(round, id int)
	// RoundEnd fires after delivery; active and halted are node counts at
	// the end of the round.
	RoundEnd(round, active, halted int)
	// RunEnd fires once with the final aggregate statistics.
	RunEnd(stats Stats)
}

// FaultEvent describes one fault injected by Options.Injector. Kind is one
// of "drop" (message discarded), "dup" (extra copy scheduled; Detail is its
// extra delay in rounds), "delay" (original copy deferred; Detail is the
// delay in rounds), "lost" (a copy arrived at a halted or crashed receiver,
// or could never be delivered), "crash" (node went down; FromID is the
// node), and "restart" (node came back up; FromID is the node).
type FaultEvent struct {
	Round  int
	Kind   string
	FromID int
	ToID   int // 0 for node events ("crash"/"restart")
	Detail int // delay in rounds for "delay"/"dup", else 0
}

// FaultTracer is an optional extension a Tracer may implement to observe
// injected faults. Like all tracer hooks, Fault is invoked serially.
// Tracers that do not implement it simply see the surviving traffic.
type FaultTracer interface {
	Fault(e FaultEvent)
}

// traceSink wraps an optional Tracer with nil-guarded dispatch. Keeping the
// guard in one place lets tests assert that the disabled path allocates
// nothing per round. The FaultTracer assertion is cached at construction so
// the per-fault dispatch is a nil check, not a type assertion.
type traceSink struct {
	t  Tracer
	ft FaultTracer
}

func newTraceSink(t Tracer) traceSink {
	ts := traceSink{t: t}
	if ft, ok := t.(FaultTracer); ok {
		ts.ft = ft
	}
	return ts
}

func (ts traceSink) fault(e FaultEvent) {
	if ts.ft != nil {
		ts.ft.Fault(e)
	}
}

func (ts traceSink) runStart(info RunInfo) {
	if ts.t != nil {
		ts.t.RunStart(info)
	}
}

func (ts traceSink) roundStart(round int) {
	if ts.t != nil {
		ts.t.RoundStart(round)
	}
}

func (ts traceSink) roundEnd(round, active, halted int) {
	if ts.t != nil {
		ts.t.RoundEnd(round, active, halted)
	}
}

func (ts traceSink) runEnd(stats Stats) {
	if ts.t != nil {
		ts.t.RunEnd(stats)
	}
}

// haltSeq is the Seq of a halt traceEvent: a node's halt replays after all
// of its sends.
const haltSeq = math.MaxInt32

// traceEvent is one send, fault or halt event buffered while a round's
// deliveries run in parallel. It carries the key of the message it belongs
// to — the round the message was sent in, its sender vertex, and the
// sender's per-round emission index — so replayRound can restore the order
// a serial pass over senders would have produced. A halt has From set to the
// halting vertex and Seq = haltSeq; a fault event has Fault set to its
// FaultEvent kind; every other event is a send.
type traceEvent struct {
	Sent, From, Seq        int32
	To, Port, Bits, Detail int32
	Fault, Kind            string
}

// replayRound feeds one round's buffered events to tr in the serial order:
// copies sent in earlier rounds (delayed) first, in the order they were
// deferred, then ascending sender vertex, each sender's messages in emission
// order, and a sender's halt after its messages. Events sharing a key belong
// to one message and were buffered by one shard in order, so the stable sort
// keeps them in sequence. ids maps vertices to identifiers.
func replayRound(tr Tracer, round int, ids []int, evs []traceEvent) {
	slices.SortStableFunc(evs, func(a, b traceEvent) int {
		if c := cmp.Compare(a.Sent, b.Sent); c != 0 {
			return c
		}
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	ft, _ := tr.(FaultTracer)
	for _, ev := range evs {
		switch {
		case ev.Seq == haltSeq:
			tr.NodeHalted(round, ids[ev.From])
		case ev.Fault != "":
			if ft != nil {
				ft.Fault(FaultEvent{Round: round, Kind: ev.Fault, FromID: ids[ev.From], ToID: ids[ev.To], Detail: int(ev.Detail)})
			}
		default:
			tr.Send(SendEvent{
				Round: round, FromID: ids[ev.From], ToID: ids[ev.To],
				Port: int(ev.Port), SizeBits: int(ev.Bits), Kind: ev.Kind,
			})
		}
	}
}

// MultiTracer fans hooks out to several tracers in order.
type MultiTracer []Tracer

// RunStart implements Tracer.
func (m MultiTracer) RunStart(info RunInfo) {
	for _, t := range m {
		t.RunStart(info)
	}
}

// RoundStart implements Tracer.
func (m MultiTracer) RoundStart(round int) {
	for _, t := range m {
		t.RoundStart(round)
	}
}

// Send implements Tracer.
func (m MultiTracer) Send(e SendEvent) {
	for _, t := range m {
		t.Send(e)
	}
}

// NodeHalted implements Tracer.
func (m MultiTracer) NodeHalted(round, id int) {
	for _, t := range m {
		t.NodeHalted(round, id)
	}
}

// RoundEnd implements Tracer.
func (m MultiTracer) RoundEnd(round, active, halted int) {
	for _, t := range m {
		t.RoundEnd(round, active, halted)
	}
}

// RunEnd implements Tracer.
func (m MultiTracer) RunEnd(stats Stats) {
	for _, t := range m {
		t.RunEnd(stats)
	}
}

// Fault implements FaultTracer, forwarding to the members that observe
// faults.
func (m MultiTracer) Fault(e FaultEvent) {
	for _, t := range m {
		if ft, ok := t.(FaultTracer); ok {
			ft.Fault(e)
		}
	}
}

// RoundMetrics aggregates one round of a traced simulation.
type RoundMetrics struct {
	Round      int
	Messages   int64
	Bits       int64
	MaxMsgBits int
	Active     int // nodes still running at the end of the round
	Halted     int // nodes halted by the end of the round
}

// KindMetrics aggregates all traffic sharing one message kind. The empty
// kind collects untagged traffic.
type KindMetrics struct {
	Kind       string
	FirstRound int // first round a message of this kind was sent
	LastRound  int
	Rounds     int // number of distinct rounds with traffic of this kind
	Messages   int64
	Bits       int64
	MaxMsgBits int
}

// MetricsTracer aggregates per-round and per-kind histograms in memory.
// The zero value is ready to use; pass it as Options.Tracer and read the
// results after Run returns.
type MetricsTracer struct {
	info   RunInfo
	stats  Stats
	rounds []RoundMetrics
	kinds  map[string]*KindMetrics

	cur          RoundMetrics
	curRound     int
	curKindRound map[string]bool // kinds seen in the current round
	faultCounts  map[string]int64
}

// FaultCount is one injected-fault kind with its total for the run.
type FaultCount struct {
	Kind  string
	Count int64
}

// RunStart implements Tracer.
func (m *MetricsTracer) RunStart(info RunInfo) {
	m.info = info
	m.rounds = m.rounds[:0]
	m.kinds = make(map[string]*KindMetrics)
	m.curKindRound = make(map[string]bool)
	m.faultCounts = make(map[string]int64)
}

// RoundStart implements Tracer.
func (m *MetricsTracer) RoundStart(round int) {
	m.curRound = round
	m.cur = RoundMetrics{Round: round}
	for k := range m.curKindRound {
		delete(m.curKindRound, k)
	}
}

// Send implements Tracer.
func (m *MetricsTracer) Send(e SendEvent) {
	m.cur.Messages++
	m.cur.Bits += int64(e.SizeBits)
	if e.SizeBits > m.cur.MaxMsgBits {
		m.cur.MaxMsgBits = e.SizeBits
	}
	if m.kinds == nil {
		m.kinds = make(map[string]*KindMetrics)
	}
	km, ok := m.kinds[e.Kind]
	if !ok {
		km = &KindMetrics{Kind: e.Kind, FirstRound: e.Round, LastRound: e.Round}
		m.kinds[e.Kind] = km
	}
	km.Messages++
	km.Bits += int64(e.SizeBits)
	if e.SizeBits > km.MaxMsgBits {
		km.MaxMsgBits = e.SizeBits
	}
	if e.Round < km.FirstRound {
		km.FirstRound = e.Round
	}
	if e.Round > km.LastRound {
		km.LastRound = e.Round
	}
	if m.curKindRound == nil {
		m.curKindRound = make(map[string]bool)
	}
	if !m.curKindRound[e.Kind] {
		m.curKindRound[e.Kind] = true
		km.Rounds++
	}
}

// NodeHalted implements Tracer.
func (m *MetricsTracer) NodeHalted(round, id int) {}

// Fault implements FaultTracer, counting injected faults by kind.
func (m *MetricsTracer) Fault(e FaultEvent) {
	if m.faultCounts == nil {
		m.faultCounts = make(map[string]int64)
	}
	m.faultCounts[e.Kind]++
}

// FaultCounts returns the injected-fault totals by kind, sorted by kind
// name. Empty for fault-free runs.
func (m *MetricsTracer) FaultCounts() []FaultCount {
	out := make([]FaultCount, 0, len(m.faultCounts))
	for k, c := range m.faultCounts {
		out = append(out, FaultCount{Kind: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// RoundEnd implements Tracer.
func (m *MetricsTracer) RoundEnd(round, active, halted int) {
	m.cur.Round = round
	m.cur.Active = active
	m.cur.Halted = halted
	m.rounds = append(m.rounds, m.cur)
}

// RunEnd implements Tracer.
func (m *MetricsTracer) RunEnd(stats Stats) { m.stats = stats }

// Info returns the run description captured at RunStart.
func (m *MetricsTracer) Info() RunInfo { return m.info }

// Stats returns the final aggregate statistics captured at RunEnd.
func (m *MetricsTracer) Stats() Stats { return m.stats }

// PerRound returns the per-round histogram (round 0 is the Init phase).
func (m *MetricsTracer) PerRound() []RoundMetrics { return m.rounds }

// PerKind returns the per-kind histogram, ordered by first appearance and
// then by name, so protocol phases come out in execution order.
func (m *MetricsTracer) PerKind() []KindMetrics {
	out := make([]KindMetrics, 0, len(m.kinds))
	for _, km := range m.kinds {
		out = append(out, *km)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstRound != out[j].FirstRound {
			return out[i].FirstRound < out[j].FirstRound
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Utilization returns the fraction of the network's total link capacity the
// run actually used: Bits / (rounds * 2m * B). Each undirected edge carries
// up to B bits in each direction per round. Returns 0 for empty runs.
func (m *MetricsTracer) Utilization() float64 {
	cap := int64(m.stats.Rounds) * 2 * int64(m.info.Edges) * int64(m.info.Bandwidth)
	if cap <= 0 {
		return 0
	}
	return float64(m.stats.Bits) / float64(cap)
}

// NDJSONTracer streams every trace event as one JSON object per line:
//
//	{"ev":"run_start","n":4,"edges":3,"bandwidth":12}
//	{"ev":"round_start","round":1}
//	{"ev":"send","round":1,"from":2,"to":3,"port":0,"bits":16,"kind":"elim"}
//	{"ev":"halt","round":9,"id":2}
//	{"ev":"round_end","round":1,"active":4,"halted":0}
//	{"ev":"run_end","rounds":9,"messages":42,"bits":672,"maxMsgBits":16,"bandwidth":12,"haltedNodes":4}
//
// Output is deterministic (fixed field order) so traces can be diffed and
// golden-tested. The writer is buffered; RunEnd flushes it, and any write
// error is latched and reported by Err.
type NDJSONTracer struct {
	w   *bufio.Writer
	err error
}

// NewNDJSONTracer wraps w in a streaming NDJSON event writer.
func NewNDJSONTracer(w io.Writer) *NDJSONTracer {
	return &NDJSONTracer{w: bufio.NewWriter(w)}
}

func (t *NDJSONTracer) printf(format string, args ...interface{}) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

// RunStart implements Tracer.
func (t *NDJSONTracer) RunStart(info RunInfo) {
	t.printf("{\"ev\":\"run_start\",\"n\":%d,\"edges\":%d,\"bandwidth\":%d}\n",
		info.N, info.Edges, info.Bandwidth)
}

// RoundStart implements Tracer.
func (t *NDJSONTracer) RoundStart(round int) {
	t.printf("{\"ev\":\"round_start\",\"round\":%d}\n", round)
}

// Send implements Tracer.
func (t *NDJSONTracer) Send(e SendEvent) {
	t.printf("{\"ev\":\"send\",\"round\":%d,\"from\":%d,\"to\":%d,\"port\":%d,\"bits\":%d,\"kind\":%q}\n",
		e.Round, e.FromID, e.ToID, e.Port, e.SizeBits, e.Kind)
}

// Fault implements FaultTracer:
//
//	{"ev":"fault","round":3,"kind":"drop","from":2,"to":5,"detail":0}
//
// Fault lines appear only in runs with an installed Injector that actually
// injects something, so fault-free traces are byte-identical to traces taken
// before fault injection existed.
func (t *NDJSONTracer) Fault(e FaultEvent) {
	t.printf("{\"ev\":\"fault\",\"round\":%d,\"kind\":%q,\"from\":%d,\"to\":%d,\"detail\":%d}\n",
		e.Round, e.Kind, e.FromID, e.ToID, e.Detail)
}

// NodeHalted implements Tracer.
func (t *NDJSONTracer) NodeHalted(round, id int) {
	t.printf("{\"ev\":\"halt\",\"round\":%d,\"id\":%d}\n", round, id)
}

// RoundEnd implements Tracer.
func (t *NDJSONTracer) RoundEnd(round, active, halted int) {
	t.printf("{\"ev\":\"round_end\",\"round\":%d,\"active\":%d,\"halted\":%d}\n", round, active, halted)
}

// RunEnd implements Tracer.
func (t *NDJSONTracer) RunEnd(stats Stats) {
	t.printf("{\"ev\":\"run_end\",\"rounds\":%d,\"messages\":%d,\"bits\":%d,\"maxMsgBits\":%d,\"bandwidth\":%d,\"haltedNodes\":%d}\n",
		stats.Rounds, stats.Messages, stats.Bits, stats.MaxMsgBits, stats.Bandwidth, stats.HaltedNodes)
	if t.err == nil {
		t.err = t.w.Flush()
	}
}

// Flush forces buffered events out (RunEnd flushes automatically).
func (t *NDJSONTracer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Err returns the first write error encountered, if any.
func (t *NDJSONTracer) Err() error { return t.err }
