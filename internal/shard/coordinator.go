package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/congest"
	"repro/internal/congest/transport"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/protocols"
)

// Options configure a multi-process run.
type Options struct {
	// Shards is the worker count K (vertices are partitioned into K
	// contiguous ranges of size ceil(n/K)). Must be >= 1.
	Shards int
	// Spawn launches the workers; nil means an in-process loopback pair per
	// worker (NewLoopback), which runs the full frame protocol without OS
	// processes.
	Spawn Spawner
	// Tracer observes the run exactly as congest.Options.Tracer does; the
	// coordinator reconstructs the engine's event stream from worker
	// reports. Cannot be combined with active Faults (same restriction the
	// in-process engine's serial path lifts, but across processes the fault
	// stream has frame granularity, so traced fault runs are rejected
	// rather than silently different).
	Tracer congest.Tracer
	// Faults, when non-nil and not Quiet, perturbs inter-shard frames:
	// whole message batches are dropped, delayed, or duplicated by a
	// stateless hash of (seed, round, src, dst). Crash schedules are not
	// supported at this layer.
	Faults *faults.FrameInjector
	// Context cancels the run at round barriers, like
	// congest.Options.Context.
	Context context.Context
}

// Result is a multi-process run outcome: the assembled protocol result
// (bit-identical to protocols.Run's), plus what the transport actually
// carried — the on-wire view the logical congest.Stats deliberately
// excludes.
type Result struct {
	Run *protocols.RunResult
	// Wire aggregates frames and bytes over every worker session,
	// coordinator side (each logical payload is counted once sent and once
	// received by the star topology's relay).
	Wire transport.WireStats
	// Checksum is the heartbeat workload's state digest (zero for protocol
	// runs).
	Checksum uint64
}

// session is the coordinator's handle on one worker.
type session struct {
	r *transport.Reader
	w *transport.Writer
}

// delayedEntry is a fault-deferred batch parked at the coordinator until
// its due round.
type delayedEntry struct {
	due   int
	shard int // receiver shard
	msgs  []transport.Msg
}

// coordinator is the state of one run.
type coordinator struct {
	g     *graph.Graph
	spec  Spec
	opt   Options
	k     int
	n     int
	limit int
	ids   []int
	cfg   protocols.Config

	sess    []*session
	wire    transport.WireStats
	stats   congest.Stats
	inj     *faults.FrameInjector
	delayed []delayedEntry

	haltedCount int
	// events is the current round's trace input for congest.ReplayRound.
	events []congest.TraceEvent
}

// Run executes spec on g across opt.Shards worker processes and returns
// the assembled result. For protocol specs the RunResult — verdict,
// counters, outputs, forest — is bit-identical to protocols.Run(g, cfg,
// spec.Options()) at any shard count; errors (validation failures, round
// limit, cancellation) carry the engine's error values and text.
func Run(g *graph.Graph, spec Spec, opt Options) (*Result, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1, got %d", opt.Shards)
	}
	inj := opt.Faults
	if inj != nil && inj.Quiet() {
		inj = nil
	}
	if inj != nil {
		if opt.Tracer != nil {
			return nil, fmt.Errorf("shard: tracing and frame faults cannot be combined")
		}
		if inj.Config().CrashRate > 0 {
			return nil, fmt.Errorf("shard: frame-level faults do not model node crashes (CrashRate must be 0)")
		}
	}
	spec.Trace = opt.Tracer != nil
	cfg, err := buildConfig(spec, g)
	if err != nil {
		return nil, err
	}
	sim, err := congest.NewSimulator(g, spec.Options())
	if err != nil {
		return nil, err
	}
	co := &coordinator{
		g:     g,
		spec:  spec,
		opt:   opt,
		k:     opt.Shards,
		n:     g.NumVertices(),
		limit: spec.RoundLimitRounds(),
		ids:   sim.IDs(),
		cfg:   cfg,
		inj:   inj,
	}

	spawner := opt.Spawn
	if spawner == nil {
		spawner = NewLoopback()
	}
	conns, cleanup, err := spawner.Spawn(co.k)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	run, checksum, err := co.drive(conns)
	if err != nil {
		if run == nil {
			return nil, err
		}
		return &Result{Run: run, Wire: co.wire}, err
	}
	return &Result{Run: run, Wire: co.wire, Checksum: checksum}, nil
}

// drive runs handshake, round loop, and collection over the spawned
// connections. A non-nil RunResult alongside an error mirrors
// protocols.Run's reliable-failure contract.
func (co *coordinator) drive(conns []io.ReadWriteCloser) (*protocols.RunResult, uint64, error) {
	if err := co.handshake(conns); err != nil {
		return nil, 0, err
	}

	bw := co.spec.Options().BandwidthBits(co.n)
	co.stats = congest.Stats{Bandwidth: bw}
	tr := co.opt.Tracer
	if tr != nil {
		tr.RunStart(congest.RunInfo{N: co.n, Edges: co.g.NumEdges(), Bandwidth: bw})
	}
	endTrace := func() {
		if tr != nil {
			tr.RunEnd(co.stats)
			tr = nil
		}
	}

	for round := 0; ; round++ {
		if round > 0 {
			if ctx := co.opt.Context; ctx != nil {
				if err := ctx.Err(); err != nil {
					co.abortAll("canceled")
					endTrace()
					return nil, 0, fmt.Errorf("%w: %w", congest.ErrCanceled, err)
				}
			}
			if round > co.limit {
				co.abortAll("round limit")
				endTrace()
				return nil, 0, fmt.Errorf("%w: %d rounds", congest.ErrRoundLimit, co.limit)
			}
			co.stats.Rounds = round
		}
		if tr != nil {
			tr.RoundStart(round)
		}
		if err := co.stepRound(round); err != nil {
			endTrace()
			return nil, 0, err
		}
		if tr != nil {
			congest.ReplayRound(tr, round, co.ids, co.events)
			tr.RoundEnd(round, co.n-co.haltedCount, co.haltedCount)
		}
		if co.haltedCount == co.n {
			break
		}
	}

	// End-of-run accounting, exactly like the engine's finish(): delayed
	// copies that can never be delivered are lost.
	for _, d := range co.delayed {
		co.stats.Faults.Lost += int64(len(d.msgs))
	}
	co.delayed = nil
	co.stats.HaltedNodes = co.haltedCount
	endTrace()

	return co.collect()
}

// handshake maps HELLO frames to shard indices, ships CONFIG, and verifies
// every READY digest echo.
func (co *coordinator) handshake(conns []io.ReadWriteCloser) error {
	if len(conns) != co.k {
		return fmt.Errorf("shard: spawner returned %d connections for %d shards", len(conns), co.k)
	}
	specBytes, err := EncodeSpec(co.spec)
	if err != nil {
		return err
	}
	graphBytes, err := EncodeGraph(co.g)
	if err != nil {
		return err
	}
	digest := Digest(specBytes, graphBytes)
	co.sess = make([]*session, co.k)
	for _, conn := range conns {
		s := &session{
			r: transport.NewReader(conn, 0, &co.wire),
			w: transport.NewWriter(conn, &co.wire),
		}
		f, err := s.r.ReadFrame()
		if err != nil {
			return fmt.Errorf("shard: reading HELLO: %w", err)
		}
		if f.Type != transport.TypeHello {
			return fmt.Errorf("shard: expected HELLO, got frame type %d", f.Type)
		}
		hello, err := transport.DecodeHello(f.Payload)
		if err != nil {
			return err
		}
		if hello.Proto != transport.Version {
			return fmt.Errorf("shard: worker speaks protocol %d, coordinator %d", hello.Proto, transport.Version)
		}
		idx := int(hello.Shard)
		if idx < 0 || idx >= co.k {
			return fmt.Errorf("shard: HELLO index %d outside %d shards", idx, co.k)
		}
		if co.sess[idx] != nil {
			return fmt.Errorf("shard: duplicate HELLO for shard %d", idx)
		}
		co.sess[idx] = s
	}
	configPayload := transport.Config{
		Shards:    uint32(co.k),
		ShardSize: uint32((co.n + co.k - 1) / co.k),
		Digest:    digest,
		Spec:      specBytes,
		Graph:     graphBytes,
	}.Encode()
	for i, s := range co.sess {
		if err := s.w.WriteFrame(transport.Frame{Type: transport.TypeConfig, Payload: configPayload}); err != nil {
			return fmt.Errorf("shard: sending CONFIG to shard %d: %w", i, err)
		}
	}
	for i, s := range co.sess {
		f, err := s.r.ReadFrame()
		if err != nil {
			return fmt.Errorf("shard: reading READY from shard %d: %w", i, err)
		}
		if f.Type == transport.TypeAbort {
			return co.abortError(i, f)
		}
		if f.Type != transport.TypeReady {
			return fmt.Errorf("shard: expected READY from shard %d, got frame type %d", i, f.Type)
		}
		ready, err := transport.DecodeReady(f.Payload)
		if err != nil {
			return err
		}
		if ready.Digest != digest {
			return fmt.Errorf("shard: shard %d echoed wrong digest", i)
		}
	}
	return nil
}

// abortError turns a worker ABORT frame into the run error.
func (co *coordinator) abortError(i int, f transport.Frame) error {
	ab, err := transport.DecodeAbort(f.Payload)
	if err != nil {
		return fmt.Errorf("shard: shard %d aborted (unreadable reason: %v)", i, err)
	}
	return fmt.Errorf("shard: shard %d aborted: %s", i, ab.Text)
}

// abortAll broadcasts ABORT, best-effort. Only called when every worker is
// known to be blocked reading (a round barrier), so the writes cannot
// deadlock on unbuffered transports.
func (co *coordinator) abortAll(text string) {
	payload := transport.Abort{Text: text}.Encode()
	for _, s := range co.sess {
		_ = s.w.WriteFrame(transport.Frame{Type: transport.TypeAbort, Payload: payload})
	}
}

// stepRound drives one barrier round: STEP out, BATCH in, fault + merge,
// DELIVER out, REPORT in.
func (co *coordinator) stepRound(round int) error {
	for i, s := range co.sess {
		if err := s.w.WriteFrame(transport.Frame{Type: transport.TypeStep, Round: uint32(round)}); err != nil {
			return fmt.Errorf("shard: sending STEP to shard %d: %w", i, err)
		}
	}
	batches := make([]transport.Batch, co.k)
	for i, s := range co.sess {
		f, err := s.r.ReadFrame()
		if err != nil {
			return fmt.Errorf("shard: reading BATCH from shard %d: %w", i, err)
		}
		if f.Type == transport.TypeAbort {
			return co.abortError(i, f)
		}
		if f.Type != transport.TypeBatch || int(f.Round) != round {
			return fmt.Errorf("shard: expected BATCH(%d) from shard %d, got type %d round %d", round, i, f.Type, f.Round)
		}
		if batches[i], err = transport.DecodeBatch(f.Payload); err != nil {
			return fmt.Errorf("shard: bad BATCH from shard %d: %w", i, err)
		}
	}
	// The engine surfaces the validation failure of the globally lowest
	// sender vertex; per-shard first errors merge by ErrVertex.
	if err := co.firstError(batches); err != nil {
		co.abortAll("sender validation failed")
		return err
	}

	delivers := co.merge(round, batches)
	for t, s := range co.sess {
		if err := s.w.WriteFrame(transport.Frame{
			Type: transport.TypeDeliver, Round: uint32(round), Payload: delivers[t].Encode(),
		}); err != nil {
			return fmt.Errorf("shard: sending DELIVER to shard %d: %w", t, err)
		}
	}

	co.events = co.events[:0]
	for i, s := range co.sess {
		f, err := s.r.ReadFrame()
		if err != nil {
			return fmt.Errorf("shard: reading REPORT from shard %d: %w", i, err)
		}
		if f.Type == transport.TypeAbort {
			return co.abortError(i, f)
		}
		if f.Type != transport.TypeReport || int(f.Round) != round {
			return fmt.Errorf("shard: expected REPORT(%d) from shard %d, got type %d round %d", round, i, f.Type, f.Round)
		}
		rep, err := transport.DecodeReport(f.Payload)
		if err != nil {
			return fmt.Errorf("shard: bad REPORT from shard %d: %w", i, err)
		}
		co.stats.Messages += rep.Messages
		co.stats.Bits += rep.Bits
		if int(rep.MaxMsgBits) > co.stats.MaxMsgBits {
			co.stats.MaxMsgBits = int(rep.MaxMsgBits)
		}
		co.stats.Faults.Lost += rep.Lost
		co.haltedCount += len(rep.Halted)
		for _, ev := range rep.Events {
			co.events = append(co.events, congest.TraceEvent{
				Sent: int32(round), From: ev.From, Seq: ev.Seq,
				To: ev.To, Port: ev.Port, Bits: ev.Bits, Kind: ev.Kind,
			})
		}
		if co.opt.Tracer != nil {
			for _, v := range rep.Halted {
				co.events = append(co.events, congest.TraceEvent{Sent: int32(round), From: v, Seq: congest.HaltSeq})
			}
		}
	}
	return nil
}

// firstError merges per-shard validation failures into the engine's error
// value for the globally lowest sender vertex.
func (co *coordinator) firstError(batches []transport.Batch) error {
	errV := int32(math.MaxInt32)
	var kind uint8
	var text string
	for _, b := range batches {
		if b.ErrKind != transport.BatchOK && b.ErrVertex < errV {
			errV, kind, text = b.ErrVertex, b.ErrKind, b.ErrText
		}
	}
	if errV == math.MaxInt32 {
		return nil
	}
	switch kind {
	case transport.BatchErrTooLarge:
		return rewrap(congest.ErrMessageTooLarge, text)
	case transport.BatchErrBandwidth:
		return rewrap(congest.ErrBandwidthExceeded, text)
	default:
		return errors.New(text)
	}
}

// rewrap rebuilds "<sentinel>: detail" text as an error wrapping the
// sentinel, so errors.Is works across the process boundary and the message
// matches the in-process engine's byte for byte.
func rewrap(sentinel error, text string) error {
	detail := strings.TrimPrefix(text, sentinel.Error())
	return fmt.Errorf("%w%s", sentinel, detail)
}

// merge builds each receiver shard's DELIVER for the round: fault-deferred
// batches due now first, then the round's traffic concatenated over sender
// shards in index order — global sender-vertex order, the same merge the
// in-process engine performs — with frame faults applied to inter-shard
// sub-batches, and same-round duplicate copies appended after normal
// traffic.
func (co *coordinator) merge(round int, batches []transport.Batch) []transport.Deliver {
	delivers := make([]transport.Deliver, co.k)
	if len(co.delayed) > 0 {
		kept := co.delayed[:0]
		for _, d := range co.delayed {
			if d.due == round {
				delivers[d.shard].Delayed = append(delivers[d.shard].Delayed, d.msgs...)
			} else {
				kept = append(kept, d)
			}
		}
		co.delayed = kept
	}
	var dups [][]transport.Msg // same-round duplicate copies, per shard
	for s, b := range batches {
		for t, sub := range b.Sub {
			if t >= co.k || len(sub) == 0 {
				continue
			}
			if co.inj == nil || s == t {
				delivers[t].Msgs = append(delivers[t].Msgs, sub...)
				continue
			}
			plan := co.inj.OnFrame(round, s, t)
			if plan.Dup {
				co.stats.Faults.Duplicated += int64(len(sub))
				co.wire.FramesDup++
				co.wire.MsgsDup += int64(len(sub))
				if plan.DupDelay > 0 {
					co.stats.Faults.Delayed += int64(len(sub))
					co.delayed = append(co.delayed, delayedEntry{due: round + plan.DupDelay, shard: t, msgs: sub})
				} else {
					if dups == nil {
						dups = make([][]transport.Msg, co.k)
					}
					dups[t] = append(dups[t], sub...)
				}
			}
			switch {
			case plan.Drop:
				co.stats.Faults.Dropped += int64(len(sub))
				co.wire.FramesDropped++
				co.wire.MsgsDropped += int64(len(sub))
			case plan.Delay > 0:
				co.stats.Faults.Delayed += int64(len(sub))
				co.wire.FramesDelayed++
				co.wire.MsgsDelayed += int64(len(sub))
				co.delayed = append(co.delayed, delayedEntry{due: round + plan.Delay, shard: t, msgs: sub})
			default:
				delivers[t].Msgs = append(delivers[t].Msgs, sub...)
			}
		}
	}
	for t := range dups {
		delivers[t].Msgs = append(delivers[t].Msgs, dups[t]...)
	}
	return delivers
}

// collect finishes the run: FINISH out, OUTPUTS in, result assembly
// identical to the in-process driver's.
func (co *coordinator) collect() (*protocols.RunResult, uint64, error) {
	for i, s := range co.sess {
		if err := s.w.WriteFrame(transport.Frame{Type: transport.TypeFinish}); err != nil {
			return nil, 0, fmt.Errorf("shard: sending FINISH to shard %d: %w", i, err)
		}
	}
	parts := make([]workerOutputs, co.k)
	for i, s := range co.sess {
		f, err := s.r.ReadFrame()
		if err != nil {
			return nil, 0, fmt.Errorf("shard: reading OUTPUTS from shard %d: %w", i, err)
		}
		if f.Type == transport.TypeAbort {
			return nil, 0, co.abortError(i, f)
		}
		if f.Type != transport.TypeOutputs {
			return nil, 0, fmt.Errorf("shard: expected OUTPUTS from shard %d, got frame type %d", i, f.Type)
		}
		out, err := transport.DecodeOutputs(f.Payload)
		if err != nil {
			return nil, 0, err
		}
		if err := json.Unmarshal(out.Data, &parts[i]); err != nil {
			return nil, 0, fmt.Errorf("shard: bad OUTPUTS from shard %d: %w", i, err)
		}
	}

	if co.spec.Workload == WorkloadHeartbeat {
		var sum uint64
		for _, p := range parts {
			sum += p.Checksum
		}
		return &protocols.RunResult{Stats: co.stats}, sum, nil
	}

	var rel protocols.RelStats
	var firstFail *protocols.UnrecoverableError
	for _, p := range parts {
		rel = rel.Add(p.Rel)
		if p.Fail != nil && firstFail == nil {
			firstFail = p.Fail
		}
	}
	if firstFail != nil {
		// Mirrors protocols.Run: stats and reliability counters, no outputs.
		return &protocols.RunResult{
			Stats:       co.stats,
			Outputs:     make([]protocols.Output, co.n),
			Reliability: rel,
		}, 0, firstFail
	}
	outputs := make([]protocols.Output, 0, co.n)
	for _, p := range parts {
		if p.OutputErr != "" {
			return nil, 0, errors.New(p.OutputErr)
		}
		outputs = append(outputs, p.Outputs...)
	}
	res, err := protocols.AssembleResult(co.g, co.cfg, co.ids, outputs)
	if err != nil {
		return nil, 0, err
	}
	res.Stats = co.stats
	res.Reliability = rel
	return res, 0, nil
}
