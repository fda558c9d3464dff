package faults

// Frame-level fault injection for the multi-process transport. Where
// Injector perturbs individual logical messages inside one process,
// FrameInjector perturbs the shard-to-shard message batches of the
// multiproc round protocol as they cross the coordinator: a dropped frame
// loses every message in the batch, a delayed frame holds the whole batch
// for d rounds, a duplicated frame re-delivers a copy later. This models a
// lossy datagram network between shard processes; protocols.Reliable's ARQ
// runs unchanged on top and must recover the run.
//
// Like Injector's message faults, every decision is a pure hash of (Seed,
// round, source shard, destination shard), so the coordinator can evaluate
// plans in any order — or re-evaluate them after a retry — and the schedule
// never shifts. Intra-shard batches (src == dst) are never touched; they
// model a process's loopback, which real networks do not lose.

// FramePlan describes what the transport does to one shard-to-shard batch.
// The zero value is transparent delivery.
type FramePlan struct {
	// Drop discards the original batch entirely.
	Drop bool
	// Delay defers the (undropped) original by this many rounds; its
	// messages arrive with round r+Delay's delayed traffic.
	Delay int
	// Dup delivers one extra copy of the batch, DupDelay rounds late
	// (DupDelay 0 re-delivers within the same round, after normal traffic).
	Dup      bool
	DupDelay int
}

// FrameInjector realizes a Config at the frame layer. The crash fields of
// the Config are ignored — process crashes are not modeled; the multiproc
// session layer rejects schedules that request them. Safe for concurrent
// use (it holds no mutable state).
type FrameInjector struct {
	cfg Config
}

// NewFrameInjector builds the stateless injector over the normalized
// Config.
func NewFrameInjector(cfg Config) *FrameInjector {
	return &FrameInjector{cfg: cfg.normalized()}
}

// Config returns the normalized schedule the injector realizes.
func (fi *FrameInjector) Config() Config { return fi.cfg }

// Quiet reports whether the injector can never perturb a frame (crash
// fields do not count — they are inert at this layer).
func (fi *FrameInjector) Quiet() bool {
	return fi.cfg.DropRate == 0 && fi.cfg.DupRate == 0 &&
		(fi.cfg.ReorderRate == 0 || fi.cfg.ReorderWindow == 0)
}

// OnFrame returns the plan for the round-`round` data frame from shard src
// to shard dst. Pure: equal arguments (under an equal Config) always return
// equal plans. Intra-shard frames are always delivered untouched.
func (fi *FrameInjector) OnFrame(round, src, dst int) FramePlan {
	if src == dst {
		return FramePlan{}
	}
	p := plan(fi.cfg, round, src, dst)
	return FramePlan{Drop: p.Drop, Delay: p.Delay, Dup: p.Dup > 0, DupDelay: p.DupDelay}
}
