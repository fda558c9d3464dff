package congest

import (
	"context"
	"fmt"
	"sync"
)

// This file is the simulator's execution engine: a sharded pipeline that
// runs node programs and routes their messages round by round.
//
// Vertices are partitioned into contiguous shards. Each round runs two
// phases per shard, separated by one barrier:
//
//  1. send:    the shard runs Round() (Init in round 0) for its active
//     vertices, then emit validates each outbox in sender-vertex order (port
//     range, single-message size, the aggregate per-(sender, port) bandwidth
//     cap), copies payloads into the shard's arena, numbers each sender's
//     messages with a per-round seq, and buckets them by receiver shard.
//  2. deliver: each receiver shard flushes fault-delayed copies that are
//     due, merges its buckets in sender-shard order — which, because shards
//     are contiguous vertex ranges, is global sender-vertex order — applies
//     the drop rule, the fault plan and corruption, counts stats, buffers
//     trace and fault events, and then compacts its newly halted vertices.
//
// Sequential and parallel runs, traced or not, faulted or not, execute the
// same code: every fault decision is a pure function of the message's
// (round, sender, seq) key, and buffered trace events are replayed after the
// round in (sender, seq) order by replayRound, so results and traces are
// bit-identical for any worker or shard count.
//
// When Options.Parallel is set the per-shard phases execute on a persistent
// worker pool (spawned once per run, not per round); otherwise they run
// inline. Only crash draws (FaultInjector.RoundStart/NodeDown) run serially,
// at the top of the round.
//
// Hot-path allocations are avoided by reusing inboxes and payload arenas.
// Sender arenas are double-buffered by round parity, because a shard emits
// round r+1's payloads while other shards' node programs still read the
// payloads delivered in round r.

// routedMsg is one validated message in a route bucket. From/To are vertex
// indices, Port is the receiver's port, Seq numbers the sender's emissions
// within the round (the fault-draw and trace-merge key), and Kind is the
// sender's trace tag ("" outside traced runs).
type routedMsg struct {
	From, To, Port, Seq int32
	Kind                string
	Payload             []byte
}

// delayedMsg is a validated message an injector deferred: it owns a copy of
// its payload and waits in its receiver shard's queue until round due.
type delayedMsg struct {
	due  int
	sent int // the round it was sent in, its trace-merge key
	m    routedMsg
}

// shard owns a contiguous vertex range [lo, hi) and all per-shard state.
// Vertex-indexed slices are shard-local (index v-lo) views of engine-wide
// arrays.
type shard struct {
	lo, hi int
	// active lists the shard's non-halted vertices in ascending order.
	active []int32

	nodes         []Node
	envs          []*Env
	outs          [][]Outgoing
	halted, dones []bool
	down          []bool // nil unless a FaultInjector is installed
	// inboxes is double-buffered by round parity: delivery in round r fills
	// inboxes[r&1], which node programs read (and truncate) in round r+1.
	inboxes [2][][]Incoming

	// Sender side. routes[t] buffers this shard's messages to receiver shard
	// t, in sender-vertex and seq order; reused across rounds.
	routes [][]routedMsg
	// arena holds payload copies, double-buffered by round parity: slices
	// handed out for round r stay valid while round r+1 writes the other
	// half. Reallocation on growth is safe — previously handed-out slices
	// keep pointing at the old backing array.
	arena [2][]byte
	// portBits/touched implement the aggregate per-(sender, port) bandwidth
	// accounting; portBits is degree-indexed scratch reset via touched
	// after each sender.
	portBits []int
	touched  []int
	// First validation error in this shard (lowest sender vertex wins).
	err  error
	errV int

	// Receiver side. copies holds payloads the receiver materializes itself
	// (duplicates, corrupted originals); one buffer suffices because it is
	// only written in the deliver phase, after the node programs consumed
	// the previous round's copies.
	copies  []byte
	delayed []delayedMsg
	// events buffers the round's trace events (traced runs only); halts
	// lists the vertices that halted this round, ascending.
	events []traceEvent
	halts  []int32
	// Per-round accumulators, folded into Stats after each round.
	messages   int64
	bits       int64
	maxMsgBits int
	faults     FaultStats
}

// workerPool runs numbered tasks on a fixed set of goroutines spawned once.
type workerPool struct {
	tasks chan int
	fn    func(int)
	wg    sync.WaitGroup
}

func newWorkerPool(workers, queue int) *workerPool {
	p := &workerPool{tasks: make(chan int, queue)}
	for i := 0; i < workers; i++ {
		//lint:ignore dmclint/gorolife workers live for the pool's lifetime; close(tasks) ends them and forEach joins every batch through wg
		//lint:ignore dmclint/ctxflow the engine closes tasks when the run ends, so the range always terminates
		go func() {
			for idx := range p.tasks {
				p.fn(idx)
				p.wg.Done()
			}
		}()
	}
	return p
}

// forEach runs fn(0..nTasks-1) on the pool and waits for completion. The
// assignment to p.fn is safe: workers only read it after receiving from the
// channel, and the previous batch has fully drained (wg.Wait) before the
// next assignment.
func (p *workerPool) forEach(nTasks int, fn func(int)) {
	p.fn = fn
	p.wg.Add(nTasks)
	for i := 0; i < nTasks; i++ {
		//lint:ignore dmclint/ctxflow queue capacity equals the task count per batch, so the send never blocks
		p.tasks <- i
	}
	//lint:ignore dmclint/ctxflow workers drain a bounded batch; the engine polls ctx at the round barrier around each forEach
	p.wg.Wait()
}

func (p *workerPool) close() { close(p.tasks) }

type engine struct {
	s         *Simulator
	n         int
	bandwidth int
	limit     int
	unbounded bool

	haltedCount int

	shards    []*shard
	shardSize int
	pool      *workerPool // nil when running inline

	round int
	stats Stats
	trace traceSink
	// traced makes emit tag messages with the sender's kind and deliver
	// buffer trace events.
	traced bool
	// events gathers the shards' buffered events for replayRound.
	events []traceEvent

	// ctx, when non-nil, is polled at every round barrier.
	ctx context.Context

	// Fault injection: inj is nil unless Options.Injector is set; faulty is
	// set when an injector or bit corruption is active, sending delivery
	// through deliverFaulted.
	inj     FaultInjector
	corrupt float64
	faulty  bool

	// Phase closures, allocated once so the round loop allocates nothing.
	sendFn    func(int)
	deliverFn func(int)
}

func newEngine(s *Simulator, nodes []Node, envs []*Env, bandwidth int) *engine {
	n := len(nodes)
	limit := s.opts.RoundLimit
	if limit == 0 {
		limit = DefaultRoundLimit
	}
	e := &engine{
		s:         s,
		n:         n,
		bandwidth: bandwidth,
		limit:     limit,
		unbounded: s.opts.Unbounded,
		trace:     newTraceSink(s.opts.Tracer),
		traced:    s.opts.Tracer != nil,
		ctx:       s.opts.Context,
		inj:       s.opts.Injector,
		corrupt:   s.opts.CorruptProb,
	}
	e.faulty = e.inj != nil || e.corrupt > 0
	e.shardSize = s.shardSize(n)
	e.shards = newShards(nodes, envs, e.shardSize, s.csr.maxDegree(), e.inj != nil)

	nShards := len(e.shards)
	if s.opts.Parallel && nShards > 1 {
		if workers := s.opts.workerCount(); workers > 1 {
			if workers > nShards {
				workers = nShards
			}
			e.pool = newWorkerPool(workers, nShards)
		}
	}
	e.sendFn = e.sendShard
	e.deliverFn = e.deliverShard
	return e
}

// shardSize is the engine's sharding rule for a run of n vertices. The shard
// count is independent of the execution mode (results never depend on it),
// sized for load balance at roughly 4 shards per worker with a floor of 16
// vertices per shard.
func (s *Simulator) shardSize(n int) int {
	workers := 1
	if s.opts.Parallel {
		workers = s.opts.workerCount()
	}
	nShards := 4 * workers
	if cap := (n + 15) / 16; nShards > cap {
		nShards = cap
	}
	if nShards < 1 {
		nShards = 1
	}
	return (n + nShards - 1) / nShards
}

// newShards partitions the run's vertices into contiguous shards of
// shardSize with every vertex active. The vertex-indexed flags, outboxes and
// inboxes are engine-wide arrays that each shard views; down is allocated
// only when a fault injector can crash nodes.
func newShards(nodes []Node, envs []*Env, shardSize, maxDeg int, crashes bool) []*shard {
	n := len(nodes)
	nShards := (n + shardSize - 1) / shardSize
	halted := make([]bool, n)
	dones := make([]bool, n)
	outs := make([][]Outgoing, n)
	inboxes := [2][][]Incoming{make([][]Incoming, n), make([][]Incoming, n)}
	var down []bool
	if crashes {
		down = make([]bool, n)
	}
	shards := make([]*shard, nShards)
	for i := range shards {
		lo := i * shardSize
		hi := min(lo+shardSize, n)
		sh := &shard{
			lo: lo, hi: hi,
			active:   make([]int32, hi-lo),
			nodes:    nodes[lo:hi],
			envs:     envs[lo:hi],
			routes:   make([][]routedMsg, nShards),
			portBits: make([]int, maxDeg),
			halted:   halted[lo:hi],
			dones:    dones[lo:hi],
			outs:     outs[lo:hi],
			inboxes:  [2][][]Incoming{inboxes[0][lo:hi], inboxes[1][lo:hi]},
		}
		if down != nil {
			sh.down = down[lo:hi]
		}
		for j := range sh.active {
			sh.active[j] = int32(lo + j)
		}
		shards[i] = sh
	}
	return shards
}

// forEach dispatches one task per shard, on the pool or inline.
func (e *engine) forEach(fn func(int)) {
	if e.pool != nil {
		e.pool.forEach(len(e.shards), fn)
		return
	}
	for i := range e.shards {
		fn(i)
	}
}

func (e *engine) shardOf(v int32) int { return int(v) / e.shardSize }

// run drives the simulation to completion. The phases are split out
// (initPhase / stepRound / finish) so the allocation-regression tests can
// drive the steady-state round loop directly under testing.AllocsPerRun.
func (e *engine) run() (Stats, error) {
	if e.pool != nil {
		defer e.pool.close()
	}
	if err := e.initPhase(); err != nil {
		e.trace.runEnd(e.stats)
		return e.stats, err
	}
	for e.haltedCount < e.n {
		if err := e.stepRound(); err != nil {
			e.trace.runEnd(e.stats)
			return e.stats, err
		}
	}
	return e.finish()
}

// initPhase runs round 0 — Init on every node, routed like any other round
// — after announcing the run to the tracer and injector.
func (e *engine) initPhase() error {
	e.stats = Stats{Bandwidth: e.bandwidth}
	e.round = 0
	e.trace.runStart(RunInfo{N: e.n, Edges: e.s.g.NumEdges(), Bandwidth: e.bandwidth})
	if e.inj != nil {
		e.inj.RunStart(e.n)
	}
	e.trace.roundStart(0)
	return e.route()
}

// stepRound advances the simulation by one round. In steady state (no
// tracer, no faults, buffers warmed up) it performs no heap allocations —
// pinned by TestEngineSteadyStateZeroAllocs.
func (e *engine) stepRound() error {
	round := e.round + 1
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	if round > e.limit {
		return fmt.Errorf("%w: %d rounds", ErrRoundLimit, e.limit)
	}
	e.stats.Rounds = round
	e.round = round
	e.trace.roundStart(round)

	if e.inj != nil {
		e.inj.RoundStart(round)
		e.updateDown()
	}
	return e.route()
}

// route runs the current round's two pool phases, folds the shards'
// counters, and replays the buffered trace events.
func (e *engine) route() error {
	e.forEach(e.sendFn)
	if err := e.firstError(); err != nil {
		return err
	}
	e.forEach(e.deliverFn)
	e.events = e.events[:0]
	for _, sh := range e.shards {
		e.stats.Messages += sh.messages
		e.stats.Bits += sh.bits
		if sh.maxMsgBits > e.stats.MaxMsgBits {
			e.stats.MaxMsgBits = sh.maxMsgBits
		}
		e.stats.Faults.add(sh.faults)
		sh.messages, sh.bits, sh.maxMsgBits, sh.faults = 0, 0, 0, FaultStats{}
		e.haltedCount += len(sh.halts)
		if e.traced {
			e.events = append(e.events, sh.events...)
			for _, v := range sh.halts {
				e.events = append(e.events, traceEvent{Sent: int32(e.round), From: v, Seq: haltSeq})
			}
		}
	}
	if e.traced {
		replayRound(e.s.opts.Tracer, e.round, e.s.ids, e.events)
	}
	e.trace.roundEnd(e.round, e.n-e.haltedCount, e.haltedCount)
	return nil
}

// finish settles end-of-run accounting once every node has halted.
func (e *engine) finish() (Stats, error) {
	// Delayed copies still queued when every node has halted can never be
	// delivered.
	for _, sh := range e.shards {
		e.stats.Faults.Lost += int64(len(sh.delayed))
		sh.delayed = sh.delayed[:0]
	}
	e.stats.HaltedNodes = e.haltedCount
	e.trace.runEnd(e.stats)
	return e.stats, nil
}

// updateDown refreshes the crash set at the top of a round: a down vertex
// skips its node program, and whatever was waiting in its inbox is lost. The
// pass runs serially before the (possibly sharded) send phase, so the
// injector's crash decisions are consumed in a deterministic order and the
// down flags are read-only while workers run.
func (e *engine) updateDown() {
	readGen := (e.round + 1) & 1
	for _, sh := range e.shards {
		inboxes := sh.inboxes[readGen]
		for i := range sh.down {
			if sh.halted[i] {
				continue
			}
			v := sh.lo + i
			d := e.inj.NodeDown(e.round, v)
			if d {
				e.stats.Faults.CrashRounds++
				if !sh.down[i] {
					e.trace.fault(FaultEvent{Round: e.round, Kind: "crash", FromID: e.s.ids[v]})
				}
				if pending := len(inboxes[i]); pending > 0 {
					e.stats.Faults.Lost += int64(pending)
					inboxes[i] = inboxes[i][:0]
				}
			} else if sh.down[i] {
				e.trace.fault(FaultEvent{Round: e.round, Kind: "restart", FromID: e.s.ids[v]})
			}
			sh.down[i] = d
		}
	}
}

// sendShard is one shard's sender side of the round: the node programs
// (Init in round 0), then emit on every outbox in sender-vertex order,
// stopping at the shard's first validation error.
func (e *engine) sendShard(si int) {
	sh := e.shards[si]
	e.compute(sh)
	gen := e.round & 1
	sh.arena[gen] = sh.arena[gen][:0]
	for t := range sh.routes {
		sh.routes[t] = sh.routes[t][:0]
	}
	for _, v := range sh.active {
		i := int(v) - sh.lo
		out := sh.outs[i]
		if len(out) == 0 {
			continue
		}
		sh.outs[i] = nil
		if err := e.emit(sh, v, out); err != nil {
			sh.err, sh.errV = err, int(v)
			return
		}
	}
}

// compute runs the node programs of one shard's active vertices.
func (e *engine) compute(sh *shard) {
	if e.round == 0 {
		for i, env := range sh.envs {
			env.Round = 0
			sh.outs[i] = sh.nodes[i].Init(env)
		}
		return
	}
	readGen := (e.round + 1) & 1 // == (round-1)&1: filled one round ago
	inboxes := sh.inboxes[readGen]
	for _, v := range sh.active {
		i := int(v) - sh.lo
		if sh.down != nil && sh.down[i] {
			// Crashed this round: the program does not run (updateDown has
			// already discarded the pending inbox).
			continue
		}
		env := sh.envs[i]
		env.Round = e.round
		inbox := inboxes[i]
		sortInbox(inbox)
		sh.outs[i], sh.dones[i] = sh.nodes[i].Round(env, inbox)
		// The inbox buffer is refilled by next round's delivery; truncate
		// now that the node has consumed it.
		inboxes[i] = inbox[:0]
	}
}

// sortInbox orders an inbox by Port, stably: messages sharing a port keep
// their send order. Delivery appends in global sender-vertex order, and a
// receiver's ports ascend with its (sorted) neighbor vertices, so inboxes
// arrive already sorted — the scan below confirms that for free, without
// the closure allocation of sort.SliceStable. Out-of-order entries only
// occur when fault-delayed copies are flushed ahead of the round's normal
// traffic; the stable insertion sort covers that case in place.
func sortInbox(inbox []Incoming) {
	for i := 1; i < len(inbox); i++ {
		if inbox[i].Port >= inbox[i-1].Port {
			continue
		}
		for ; i < len(inbox); i++ {
			for j := i; j > 0 && inbox[j].Port < inbox[j-1].Port; j-- {
				inbox[j], inbox[j-1] = inbox[j-1], inbox[j]
			}
		}
		return
	}
}

// checkedSize validates one message from v on port p against the per-edge
// budget: the single-message cap first (ErrMessageTooLarge), then the
// aggregate per-(sender, port) per-round cap (ErrBandwidthExceeded).
// portBits must be v's zeroed scratch; touched collects dirtied ports.
func (e *engine) checkedSize(v int32, p int, payloadLen int, portBits []int, touched *[]int) error {
	sizeBits := 8 * payloadLen
	if e.unbounded {
		return nil
	}
	if sizeBits > e.bandwidth {
		return fmt.Errorf("%w: %d bits > %d-bit budget (node %d, port %d)",
			ErrMessageTooLarge, sizeBits, e.bandwidth, e.s.ids[v], p)
	}
	if portBits[p] == 0 {
		*touched = append(*touched, p)
	}
	portBits[p] += sizeBits
	if portBits[p] > e.bandwidth {
		return fmt.Errorf("%w: %d bits in one round > %d-bit budget (node %d, port %d)",
			ErrBandwidthExceeded, portBits[p], e.bandwidth, e.s.ids[v], p)
	}
	return nil
}

func resetPortBits(portBits []int, touched *[]int) {
	for _, p := range *touched {
		portBits[p] = 0
	}
	*touched = (*touched)[:0]
}

// emit validates one sender's outbox in emission order and buckets the
// messages by receiver shard, copying payloads into the shard's arena for
// the current round parity. Each expanded message gets the sender's next
// seq, the key fault draws and the trace merge use.
func (e *engine) emit(sh *shard, v int32, out []Outgoing) error {
	gen := e.round & 1
	arena := sh.arena[gen]
	kind := ""
	if e.traced {
		kind = sh.envs[int(v)-sh.lo].kind
	}
	csr := e.s.csr
	base := csr.off[v]
	deg := int(csr.off[v+1] - base)
	seq := int32(0)
	var err error
outbox:
	for _, o := range out {
		lo, hi := o.Port, o.Port+1
		if o.Port == -1 {
			lo, hi = 0, deg
		}
		for p := lo; p < hi; p++ {
			if p < 0 || p >= deg {
				err = fmt.Errorf("congest: node %d sent to invalid port %d", e.s.ids[v], p)
				break outbox
			}
			if err = e.checkedSize(v, p, len(o.Payload), sh.portBits, &sh.touched); err != nil {
				break outbox
			}
			w := csr.nbr[base+int32(p)]
			start := len(arena)
			arena = append(arena, o.Payload...)
			t := e.shardOf(w)
			sh.routes[t] = append(sh.routes[t], routedMsg{
				From: v, To: w, Port: csr.back[base+int32(p)], Seq: seq,
				Kind: kind, Payload: arena[start:len(arena):len(arena)],
			})
			seq++
		}
	}
	sh.arena[gen] = arena
	resetPortBits(sh.portBits, &sh.touched)
	return err
}

// firstError returns the recorded validation error with the lowest sender
// vertex: the one a serial pass in sender-vertex order would hit first.
func (e *engine) firstError() error {
	var err error
	best := e.n
	for _, sh := range e.shards {
		if sh.err != nil && sh.errV < best {
			best, err = sh.errV, sh.err
		}
	}
	return err
}

// deliverShard is one receiver shard's side of the round: due delayed
// copies first, then the round's buckets in sender-shard order (global
// sender-vertex order), then compaction.
func (e *engine) deliverShard(ti int) {
	sh := e.shards[ti]
	e.beginDeliver(sh)
	for _, src := range e.shards {
		e.deliver(sh, src.routes[ti])
	}
	e.compact(sh)
}

// beginDeliver resets the shard's per-round receiver buffers and flushes
// the delayed copies due this round, in the order they were deferred.
func (e *engine) beginDeliver(sh *shard) {
	sh.copies = sh.copies[:0]
	sh.events = sh.events[:0]
	if len(sh.delayed) == 0 {
		return
	}
	k := 0
	for _, d := range sh.delayed {
		if d.due > e.round {
			sh.delayed[k] = d
			k++
			continue
		}
		e.deliverLate(sh, d.m, d.sent)
	}
	sh.delayed = sh.delayed[:k]
}

// deliverLate delivers one fault-delayed copy sent in an earlier round.
// Delivery targets the current parity's inboxes — the generation node
// programs read next round, exactly when an on-time message sent this round
// arrives. A copy whose receiver halted or is down is lost.
func (e *engine) deliverLate(sh *shard, m routedMsg, sent int) {
	i := int(m.To) - sh.lo
	if sh.halted[i] || (sh.down != nil && sh.down[i]) {
		sh.faults.Lost++
		e.faultEvent(sh, sent, &m, "lost", 0)
		return
	}
	m.Kind = "delayed"
	e.accept(sh, sent, &m, m.Payload)
}

// deliver merges one sender shard's bucket into this receiver shard. A
// message is dropped, uncounted, if its receiver halted in an earlier round,
// or halts this round and precedes the sender in vertex order — exactly
// what a serial pass marking halts in sender-vertex order would see.
func (e *engine) deliver(sh *shard, msgs []routedMsg) {
	inboxes := sh.inboxes[e.round&1]
	for k := range msgs {
		m := &msgs[k]
		i := int(m.To) - sh.lo
		if sh.halted[i] || (sh.dones[i] && m.To < m.From) {
			continue
		}
		if e.faulty {
			e.deliverFaulted(sh, m)
			continue
		}
		inboxes[i] = append(inboxes[i], Incoming{Port: int(m.Port), Payload: m.Payload})
		sh.count(len(m.Payload))
		if e.traced {
			sh.sendEvent(e.round, m, len(m.Payload))
		}
	}
}

// deliverFaulted applies the crash set, the injector's plan and bit
// corruption to one message. Every decision is keyed by the message's
// (round, sender, seq), so shards may evaluate them in any order.
func (e *engine) deliverFaulted(sh *shard, m *routedMsg) {
	i := int(m.To) - sh.lo
	if sh.down != nil && sh.down[i] {
		// The receiver is crashed while the message is in transit.
		sh.faults.Lost++
		e.faultEvent(sh, e.round, m, "lost", 0)
		return
	}
	var plan FaultPlan
	if e.inj != nil {
		plan = e.inj.OnSend(e.round, int(m.From), int(m.To), int(m.Seq))
	}
	switch {
	case plan.Drop:
		sh.faults.Dropped++
		e.faultEvent(sh, e.round, m, "drop", 0)
	case plan.Delay > 0:
		sh.faults.Delayed++
		e.faultEvent(sh, e.round, m, "delay", plan.Delay)
		e.postpone(sh, m, plan.Delay)
	default:
		payload := m.Payload
		if e.corrupt > 0 && len(payload) > 0 && e.keyedDraw(m, laneCorrupt) < e.corrupt {
			payload = sh.copy(payload)
			payload[int(e.keyedDraw(m, laneCorruptByte)*float64(len(payload)))] ^=
				1 << uint(e.keyedDraw(m, laneCorruptBit)*8)
		}
		e.accept(sh, e.round, m, payload)
	}
	for c := 0; c < plan.Dup; c++ {
		sh.faults.Duplicated++
		e.faultEvent(sh, e.round, m, "dup", plan.DupDelay)
		if plan.DupDelay > 0 {
			sh.faults.Delayed++
			e.postpone(sh, m, plan.DupDelay)
			continue
		}
		e.accept(sh, e.round, m, sh.copy(m.Payload))
	}
}

// Lanes of the corruption draws (see KeyedDraw).
const (
	laneCorrupt     = 0x2545F4914F6CDD1D
	laneCorruptByte = 0x5851F42D4C957F2D
	laneCorruptBit  = 0x14057B7EF767814F
)

func (e *engine) keyedDraw(m *routedMsg, lane uint64) float64 {
	return KeyedDraw(e.s.opts.CorruptSeed, e.round, int(m.From), int(m.Seq), lane)
}

// copy materializes a receiver-owned copy of a payload.
func (sh *shard) copy(p []byte) []byte {
	start := len(sh.copies)
	sh.copies = append(sh.copies, p...)
	return sh.copies[start:len(sh.copies):len(sh.copies)]
}

// postpone queues an owned copy of m for delivery delay rounds late.
func (e *engine) postpone(sh *shard, m *routedMsg, delay int) {
	d := delayedMsg{due: e.round + delay, sent: e.round, m: *m}
	d.m.Payload = append([]byte(nil), m.Payload...)
	sh.delayed = append(sh.delayed, d)
}

// accept appends one copy to its receiver's inbox, counts it, and buffers
// its send event.
func (e *engine) accept(sh *shard, sent int, m *routedMsg, payload []byte) {
	i := int(m.To) - sh.lo
	inboxes := sh.inboxes[e.round&1]
	inboxes[i] = append(inboxes[i], Incoming{Port: int(m.Port), Payload: payload})
	sh.count(len(payload))
	if e.traced {
		sh.sendEvent(sent, m, len(payload))
	}
}

// count adds one delivered message of the given payload length to the
// shard's per-round counters.
func (sh *shard) count(payloadLen int) {
	sizeBits := 8 * payloadLen
	sh.messages++
	sh.bits += int64(sizeBits)
	if sizeBits > sh.maxMsgBits {
		sh.maxMsgBits = sizeBits
	}
}

// sendEvent buffers the send event of one delivered copy.
func (sh *shard) sendEvent(sent int, m *routedMsg, payloadLen int) {
	sh.events = append(sh.events, traceEvent{
		Sent: int32(sent), From: m.From, Seq: m.Seq,
		To: m.To, Port: m.Port, Bits: int32(8 * payloadLen), Kind: m.Kind,
	})
}

// faultEvent buffers one injected-fault event (traced runs only).
func (e *engine) faultEvent(sh *shard, sent int, m *routedMsg, kind string, detail int) {
	if e.traced {
		sh.events = append(sh.events, traceEvent{
			Sent: int32(sent), From: m.From, Seq: m.Seq, To: m.To,
			Fault: kind, Detail: int32(detail),
		})
	}
}

// compact marks this shard's newly halted vertices, records them in halts,
// and removes them from the active list.
func (e *engine) compact(sh *shard) {
	sh.halts = sh.halts[:0]
	for _, v := range sh.active {
		i := int(v) - sh.lo
		if sh.dones[i] && !sh.halted[i] {
			sh.halted[i] = true
			sh.halts = append(sh.halts, v)
		}
	}
	if len(sh.halts) == 0 {
		return
	}
	k := 0
	for _, v := range sh.active {
		if !sh.halted[int(v)-sh.lo] {
			sh.active[k] = v
			k++
		}
	}
	sh.active = sh.active[:k]
}
