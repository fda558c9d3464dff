package congest

import "sync"

// ScratchPool recycles the engine's per-run allocation-heavy state — halt
// flags, outboxes, the double-buffered inboxes, and the shards with their
// route buckets and payload arenas — across simulations. A long-running
// service answering many queries over same-shaped graphs pays the slice
// growth once and then runs allocation-flat; one-shot callers simply leave
// Options.Scratch nil.
//
// Pooling is transparent to results: every buffer is reset on acquire
// (payload memory is only valid during the run that produced it, per the
// Incoming contract), and the pool keys on the exact engine layout
// (n, shard size, max degree) so adopted buffers always fit.
type ScratchPool struct {
	mu    sync.Mutex
	cache map[scratchKey][]*engineScratch
	// perKey caps how many idle scratch sets are retained per layout;
	// overflow on release is dropped for the GC.
	perKey int
}

// DefaultScratchPerKey is how many idle scratch sets a pool retains per
// engine layout — enough for that many simultaneous same-shape runs to
// recycle without contention.
const DefaultScratchPerKey = 8

// NewScratchPool returns an empty pool. It is safe for concurrent use.
func NewScratchPool() *ScratchPool {
	return &ScratchPool{cache: make(map[scratchKey][]*engineScratch), perKey: DefaultScratchPerKey}
}

// scratchKey identifies an engine memory layout: buffers acquired under one
// key fit any run with the same vertex count, shard size, and maximum
// degree.
type scratchKey struct {
	n         int
	shardSize int
	maxDeg    int
}

// scratchLayout computes the buffer key for a run of n vertices. The shard
// count is independent of the execution mode (results never depend on it),
// sized for load balance at roughly 4 shards per worker with a floor of 16
// vertices per shard; newEngine derives its layout from this key, so pooled
// buffers and engine sharding always agree.
func (s *Simulator) scratchLayout(n int) scratchKey {
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
	shardSize := (n + nShards - 1) / nShards
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := s.csr.degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return scratchKey{n: n, shardSize: shardSize, maxDeg: maxDeg}
}

// engineScratch is the recyclable slice state of one engine: vertex-indexed
// backing arrays, and the shards whose views slice them.
type engineScratch struct {
	key     scratchKey
	halted  []bool
	dones   []bool
	down    []bool
	outs    [][]Outgoing
	inboxes [2][][]Incoming
	shards  []*shard
}

// newEngineScratch allocates fresh buffers for a layout.
func newEngineScratch(key scratchKey) *engineScratch {
	n := key.n
	nShards := (n + key.shardSize - 1) / key.shardSize
	sc := &engineScratch{
		key:    key,
		halted: make([]bool, n),
		dones:  make([]bool, n),
		down:   make([]bool, n),
		outs:   make([][]Outgoing, n),
		shards: make([]*shard, nShards),
	}
	sc.inboxes[0] = make([][]Incoming, n)
	sc.inboxes[1] = make([][]Incoming, n)
	for i := range sc.shards {
		lo := i * key.shardSize
		hi := min(lo+key.shardSize, n)
		sc.shards[i] = &shard{
			lo: lo, hi: hi,
			active:   make([]int32, 0, hi-lo),
			routes:   make([][]routedMsg, nShards),
			portBits: make([]int, key.maxDeg),
			halted:   sc.halted[lo:hi],
			dones:    sc.dones[lo:hi],
			outs:     sc.outs[lo:hi],
			inboxes:  [2][][]Incoming{sc.inboxes[0][lo:hi], sc.inboxes[1][lo:hi]},
		}
	}
	return sc
}

// reset restores the scratch to its pre-run state, keeping every buffer's
// capacity: flags cleared, outboxes nil'd, inbox and route buckets
// truncated, arenas reclaimed, every vertex active again.
func (sc *engineScratch) reset() {
	for i := range sc.halted {
		sc.halted[i] = false
		sc.dones[i] = false
		sc.down[i] = false
		sc.outs[i] = nil
		sc.inboxes[0][i] = sc.inboxes[0][i][:0]
		sc.inboxes[1][i] = sc.inboxes[1][i][:0]
	}
	for _, sh := range sc.shards {
		sh.reset()
	}
}

// reset truncates the shard's own buffers and reactivates its range.
func (sh *shard) reset() {
	sh.active = sh.active[:0]
	for v := sh.lo; v < sh.hi; v++ {
		sh.active = append(sh.active, int32(v))
	}
	for t := range sh.routes {
		sh.routes[t] = sh.routes[t][:0]
	}
	sh.arena[0] = sh.arena[0][:0]
	sh.arena[1] = sh.arena[1][:0]
	for p := range sh.portBits {
		sh.portBits[p] = 0
	}
	sh.touched = sh.touched[:0]
	sh.err, sh.errV = nil, 0
	sh.copies = sh.copies[:0]
	sh.delayed = sh.delayed[:0]
	sh.events = sh.events[:0]
	sh.halts = sh.halts[:0]
	sh.messages, sh.bits, sh.maxMsgBits, sh.faults = 0, 0, 0, FaultStats{}
}

// acquire returns a reset scratch for the layout, reusing an idle one when
// available.
func (p *ScratchPool) acquire(key scratchKey) *engineScratch {
	p.mu.Lock()
	stack := p.cache[key]
	var sc *engineScratch
	if len(stack) > 0 {
		sc = stack[len(stack)-1]
		p.cache[key] = stack[:len(stack)-1]
	}
	p.mu.Unlock()
	if sc == nil {
		sc = newEngineScratch(key)
	}
	sc.reset()
	return sc
}

// release returns a scratch to the pool once its run has fully completed
// (beyond the per-key cap it is dropped for the GC).
func (p *ScratchPool) release(sc *engineScratch) {
	for _, sh := range sc.shards {
		sh.nodes, sh.envs = nil, nil // do not keep the finished run's programs alive
	}
	p.mu.Lock()
	if len(p.cache[sc.key]) < p.perKey {
		p.cache[sc.key] = append(p.cache[sc.key], sc)
	}
	p.mu.Unlock()
}

// Idle reports how many scratch sets are currently retained, across all
// layouts (diagnostics for /v1/stats).
func (p *ScratchPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, stack := range p.cache {
		total += len(stack)
	}
	return total
}
