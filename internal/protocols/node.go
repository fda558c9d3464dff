package protocols

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/congest"
	"repro/internal/regular"
)

// Mode selects what the distributed protocol computes.
type Mode int

// Protocol modes.
const (
	ModeDecide Mode = iota + 1
	ModeOptimize
	ModeCount
	ModeCheckMarked
)

// MarkLabel is the vertex/edge label naming the marked set in
// ModeCheckMarked (the unary predicate Mark of Section 6).
const MarkLabel = "mark"

// Failure codes carried by the protocol. A node's code travels up with its
// table and down with the verdict, the larger code winning, so every node
// ends the run with the worst failure of its tree.
const (
	failNone       = 0
	failTdExceeded = 1 // Algorithm 2 rejected: td(G) > d
	failPredicate  = 2 // the DP algebra returned an error (Output.Err holds it)
	failProtocol   = 3 // the elimination-forest check failed, or a message was malformed
)

// Config parameterizes the protocol run; it is known to every node up front
// (it encodes the algorithm, not the input graph).
type Config struct {
	Pred     regular.Predicate
	Mode     Mode
	D        int  // treedepth parameter d
	Maximize bool // optimization direction
	// VertexLabelNames / EdgeLabelNames fix the label vocabulary used on the
	// wire (part of the formula, hence global knowledge).
	VertexLabelNames []string
	EdgeLabelNames   []string
	// Reliable wraps every node in the reliable-delivery adapter (see
	// reliable.go), restoring round-synchronous semantics on a faulty
	// network at the cost of extra physical rounds and bandwidth. Requires a
	// physical frame budget of at least ReliableMinFrameBytes (use
	// ReliableBandwidthFactor for congest.Options.BandwidthFactor).
	Reliable bool
	// Rel tunes the adapter when Reliable is set (zero value = defaults).
	Rel ReliableConfig
	// Cache, when non-nil, is a process-lifetime shared DP cache for Pred:
	// every node draws a handle from it instead of building a private
	// interner/memo, so classes and compositions interned by earlier runs
	// (earlier requests, in a daemon) are reused. Must wrap the same
	// predicate as Pred. Caching stays computation-local either way —
	// verdicts, wire bytes, and round counts are bit-identical to private
	// per-node caches.
	Cache *regular.Shared
}

// depthBound is 2^d, the elimination-tree depth bound of Lemma 2.5.
func (c *Config) depthBound() int { return 1 << uint(c.D) }

// semiring is the table algebra of the main DP table: ∃ for decision,
// checked counting, and (max,+) or (min,+) for both optimization modes.
func (c *Config) semiring() regular.Semiring {
	switch c.Mode {
	case ModeDecide:
		return regular.Exists
	case ModeCount:
		return regular.Count
	}
	return regular.OptSemiring(c.Maximize)
}

// elimPayloadBytes is the fixed payload size of elimination-phase messages
// (three u32 fields); elimMsgBytes adds the stream length prefix.
const (
	elimPayloadBytes = 12
	elimMsgBytes     = elimPayloadBytes + 4
)

// schedule is Algorithm 2's round schedule. It derives from public
// knowledge only (n, B, d), so every node computes the same one, once, in
// Init.
type schedule struct {
	frameBudget int // bytes per frame
	window      int // rounds to move one elimination message one hop: frames + 1
	hops        int // flooding budget H = min(2^d, n)
	step        int // rounds per step: (H hops + 1 announce window) * window
	last        int // last elimination round: D = min(2^d, n) steps
}

// newSchedule computes the schedule. The flooding and step budgets never
// need to exceed min(2^d, n): component diameters are below 2^d when
// td(G) <= d, and always below n, which every node knows.
func newSchedule(cfg *Config, env *congest.Env) schedule {
	fb := congest.FrameBudgetBytes(env.Bandwidth)
	window := (elimMsgBytes+fb-1)/fb + 1
	h := cfg.depthBound()
	if env.N < h {
		h = env.N
	}
	step := (h + 1) * window
	return schedule{frameBudget: fb, window: window, hops: h, step: step, last: h * step}
}

// node phases.
const (
	phaseElim = iota
	phaseBags
	phaseUp
	phaseDown
	phaseDone
)

// Output is what a node reports when it halts.
type Output struct {
	Failure int
	// Err is the predicate error this node hit itself (failure code
	// failPredicate), such as regular.ErrOverflow or an engine limit. It
	// never crosses the wire: neighbours learn only the failure code.
	Err error
	// Root-only results.
	IsRoot   bool
	Accepted bool  // ModeDecide / ModeCheckMarked verdict
	Found    bool  // ModeOptimize feasibility
	Weight   int64 // ModeOptimize optimum
	Count    int64 // ModeCount result
	// Per-node results.
	ParentID      int // elimination-tree parent (-1 for the root)
	Depth         int
	Bag           []int // sorted bag IDs (Lemma 5.3)
	BagEdges      [][2]int
	Selected      bool  // ModeOptimize, vertex predicates: this node is in S
	SelectedEdges []int // ModeOptimize, edge predicates: ancestor IDs of selected owned edges
	// Cache reports this node's DP-cache traffic (computation-local: caching
	// never changes what crosses the wire, so these are diagnostics only).
	Cache regular.CacheStats
}

// dpNode is the per-vertex protocol state machine. It holds the fields the
// elimination rounds touch; the rest of its state lives in a dpState of a
// separate slab, so that Algorithm 2's rounds, which dominate a run, sweep
// compact nodes.
type dpNode struct {
	cfg   *Config // shared by every node of a run
	env   *congest.Env
	phase int
	sched schedule

	// Streams, one per port.
	send []congest.ByteStreamSender
	recv []congest.ByteStreamReceiver

	// outBuf backs the Outgoing slice returned by emitFrames, reused across
	// rounds so the steady-state frame pump allocates nothing.
	outBuf []congest.Outgoing

	// --- elimination phase (Algorithm 2) ---
	// Per-neighbor state is port-indexed or childIDs-aligned flat slices (no
	// maps): markedNbr[port] is the depth of the marked neighbor on that port
	// (-1 while unmarked; announced depths are always >= 1), and
	// childPorts[i] is the port of childIDs[i].
	marked     bool
	parentID   int
	depth      int
	childIDs   []int // sorted
	childPorts []int // childPorts[i] = port of childIDs[i]
	parentPort int
	markedNbr  []int32
	tuple      floodTuple
	// elimMsg is the encoding buffer of flood and announce messages; Push
	// copies it into the stream.
	elimMsg [elimPayloadBytes]byte

	*dpState
}

// dpState is the part of a node's state that the elimination rounds leave
// alone: its output and the bags and DP phases.
type dpState struct {
	out     Output
	failure int

	// --- bags phase (Lemma 5.3) ---
	bag            []int       // sorted IDs, includes self
	bagInfo        []bagVertex // bagInfo[i] describes bag[i]
	bagEdges       [][2]int    // index pairs into bag (sorted IDs), G[B_u]
	haveBag        bool
	peerBags       int // how many neighbor bag-peer messages received
	peerFail       int
	mustBeAncestor []int // neighbor IDs that must appear in our own bag

	// --- DP phases ---
	// cache is this node's private interned/memoized DP algebra. It is
	// created when the base tables are built and never shared between nodes:
	// all caching is computation-local, so CONGEST rounds, messages, and wire
	// bytes are exactly those of the uncached protocol.
	cache *regular.Cached
	// childTables[i] is the table received from childIDs[i]; tableGot[i]
	// records arrival and tablesGot counts them (allocated once the child
	// set is final, at the end of the elimination phase).
	childTables  []childTable
	tableGot     []bool
	tablesGot    int
	stages       []upStage
	final        regular.Table // the node's table under cfg.semiring()
	finalMarked  regular.Table // ModeCheckMarked: classes with S fixed to the marked set
	markedWeight int64
	sentUp       bool
}

type bagVertex struct {
	weight int64
	labels uint32 // bitmask into cfg.VertexLabelNames
}

type childTable struct {
	failure int
	entries []tableEntry
	marked  []tableEntry // ModeCheckMarked: decision table of the marked-set run
	weight  int64        // ModeCheckMarked: subtree marked weight
}

type tableEntry struct {
	key   []byte
	value int64
}

// upStage is one ModeOptimize fold: the child folded in, the table the
// fold produced and that table's back-pointers.
type upStage struct {
	childID int
	table   regular.Table
	back    []regular.Back
}

type floodTuple struct {
	depth    int
	markedID int
	candID   int
}

// better reports whether a beats b: deeper marked neighbor first, then
// smaller marked ID, then smaller candidate ID.
func (a floodTuple) better(b floodTuple) bool {
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	if a.markedID != b.markedID {
		return a.markedID < b.markedID
	}
	return a.candID < b.candID
}

// Message kinds reported through congest.Env.Tag, one per protocol phase:
// the Algorithm 2 elimination flood, the Lemma 5.3 bag propagation, the
// bottom-up DP tables, and the two downward finishes. The tag is sticky, so
// frames that drain a phase's stream over later rounds keep that phase's
// kind in the trace.
const (
	KindElim    = "elim"    // Algorithm 2 flooding + adoption announcements
	KindBag     = "bag"     // canonical-bag top-down propagation + peer checks
	KindTable   = "table"   // child -> parent DP tables
	KindVerdict = "verdict" // root -> leaves decision/count verdict
	KindTarget  = "target"  // root -> leaves OPT target classes

	// Collect-at-root baseline kinds.
	KindBFS     = "bfs"     // BFS tree construction
	KindCollect = "collect" // edge lists shipped up the BFS tree
	KindAnswer  = "answer"  // root's verdict broadcast down
)

// NewNode builds the protocol node for one vertex.
func NewNode(cfg Config) congest.Node {
	var slab nodeSlab
	return &slab.fill(&cfg, 1)[0]
}

// nodeSlab holds the protocol nodes of a run in two vertex-ordered slabs:
// the dpNodes, and the dpStates they point to.
type nodeSlab struct {
	nodes  []dpNode
	states []dpState
}

// fill lays out the nodes of count vertices, all sharing cfg, reusing the
// slabs' arrays when they are large enough. The slabs must be zero: fresh,
// or zeroed by clear.
func (s *nodeSlab) fill(cfg *Config, count int) []dpNode {
	if cap(s.nodes) < count {
		s.nodes = make([]dpNode, count)
		s.states = make([]dpState, count)
	}
	s.nodes, s.states = s.nodes[:count], s.states[:count]
	for i := range s.nodes {
		s.nodes[i].cfg = cfg
		s.nodes[i].dpState = &s.states[i]
		s.nodes[i].parentID = -2
		s.nodes[i].parentPort = -1
	}
	return s.nodes
}

// slabPool recycles *nodeSlab values between runs. A run's nodes are dead
// once Run has copied their outputs, and the next run of a same-sized graph
// needs the same two arrays again: reusing them spares every run its
// largest allocation, which would otherwise land all at once at the start
// of the run.
var slabPool = sync.Pool{New: func() any { return new(nodeSlab) }}

// clear zeroes the nodes and states the last fill handed out, so that a
// pooled slab keeps nothing of its run alive. No node of the run may be
// used afterwards.
func (s *nodeSlab) clear() {
	clear(s.nodes)
	clear(s.states)
}

// Result returns the node's output; valid once the simulation has finished.
// Nodes wrapped by the reliable-delivery adapter are unwrapped transparently.
func Result(n congest.Node) (Output, error) {
	if rel, isRel := n.(*Reliable); isRel {
		n = rel.inner
	}
	d, ok := n.(*dpNode)
	if !ok {
		return Output{}, fmt.Errorf("%w: not a protocol node", ErrProtocol)
	}
	return d.out, nil
}

// --- congest.Node implementation ---

// Init implements congest.Node.
func (n *dpNode) Init(env *congest.Env) []congest.Outgoing {
	n.env = env
	n.sched = newSchedule(n.cfg, env)
	n.send = make([]congest.ByteStreamSender, env.Degree)
	n.recv = make([]congest.ByteStreamReceiver, env.Degree)
	n.markedNbr = make([]int32, env.Degree)
	for p := range n.markedNbr {
		n.markedNbr[p] = -1
	}
	n.phase = phaseElim
	env.Tag(KindElim)
	return nil
}

// Round implements congest.Node.
func (n *dpNode) Round(env *congest.Env, inbox []congest.Incoming) ([]congest.Outgoing, bool) {
	n.env = env
	// Consume every complete message, port by port in ascending order. A
	// message completes only when a frame arrives, and every round drains
	// what completed, so only the ports in this round's inbox (ordered by
	// port) can hold one.
	for i := 0; i < len(inbox); {
		port := inbox[i].Port
		rx := &n.recv[port]
		for ; i < len(inbox) && inbox[i].Port == port; i++ {
			rx.Feed(inbox[i].Payload)
		}
		for {
			msg, ok := rx.Pop()
			if !ok {
				break
			}
			if n.phase == phaseElim {
				n.handleElimMsg(port, msg)
			} else if err := n.handle(port, msg); err != nil {
				n.fail(failProtocol)
			}
		}
		if n.phase != phaseElim {
			rx.Release() // see emitFrames
		}
	}

	if n.phase == phaseElim {
		n.elimRound(env.Round)
		if env.Round == n.sched.last {
			n.enterBagsPhase()
		}
	} else {
		n.progress() // event-driven phases
	}

	out := n.emitFrames()
	if n.phase == phaseDone && !n.pendingFrames() {
		n.out.ParentID = n.parentID
		n.out.Depth = n.depth
		n.out.Bag = n.bag
		n.out.BagEdges = n.bagEdges
		if n.cache != nil {
			n.out.Cache = n.cache.Stats()
		}
		if n.out.Failure == 0 {
			n.out.Failure = n.failure
		}
		return out, true
	}
	return out, false
}

func (n *dpNode) fail(code int) {
	if code > n.failure {
		n.failure = code
	}
}

// failPred records a predicate error hit by this node's own DP computation.
func (n *dpNode) failPred(err error) {
	if n.out.Err == nil {
		n.out.Err = err
	}
	n.fail(failPredicate)
}

// emitFrames pops the next frame of every port. The elimination rounds keep
// their stream buffers, which carry the same small messages round after
// round; the later phases send each port a few larger one-off messages
// (bags, tables, targets), so their drained buffers are released rather
// than held, each at its largest size, until the run ends.
func (n *dpNode) emitFrames() []congest.Outgoing {
	out := n.outBuf[:0]
	for port := range n.send {
		if frame, ok := n.send[port].NextFrame(n.sched.frameBudget); ok {
			out = append(out, congest.Outgoing{Port: port, Payload: frame})
		}
		if n.phase != phaseElim {
			n.send[port].Release()
		}
	}
	n.outBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

func (n *dpNode) pendingFrames() bool {
	for port := range n.send {
		if n.send[port].Pending() {
			return true
		}
	}
	return false
}

// --- elimination phase ---

func (n *dpNode) elimRound(round int) {
	inner := (round - 1) % n.sched.step
	windowIdx := inner / n.sched.window
	windowPos := inner % n.sched.window
	isAnnounce := windowIdx == n.sched.hops

	if windowPos != 0 {
		return // mid-window: frames flow, nothing new to push
	}

	if !isAnnounce {
		if windowIdx == 0 {
			// Step start: recompute the local tuple from marked neighbors.
			n.tuple = n.localTuple()
		}
		if n.marked {
			return
		}
		// Push the current best tuple to all unmarked neighbors.
		payload := n.encodeElim(n.tuple.depth, n.tuple.markedID, n.tuple.candID)
		for port := 0; port < n.env.Degree; port++ {
			if n.markedNbr[port] < 0 {
				n.send[port].Push(payload)
			}
		}
		return
	}

	// Announce window: the winner adopts itself and announces.
	if n.marked || n.tuple.candID != n.env.ID {
		return
	}
	if n.tuple.depth == 0 {
		n.parentID = -1
		n.depth = 1
	} else {
		n.parentID = n.tuple.markedID
		n.depth = n.tuple.depth + 1
		port, ok := n.portOfID(n.parentID)
		if !ok {
			// The elected parent is not a neighbor: inconsistent flooding
			// (only possible when td(G) > d).
			n.fail(failTdExceeded)
			return
		}
		n.parentPort = port
	}
	n.marked = true
	payload := n.encodeElim(n.depth, n.env.ID, pid(n.parentID))
	for port := 0; port < n.env.Degree; port++ {
		n.send[port].Push(payload)
	}
}

// pid encodes a possibly-negative parent ID into a u32-safe value.
func pid(id int) int {
	if id < 0 {
		return 0
	}
	return id
}

func (n *dpNode) portOfID(id int) (int, bool) {
	for port, nid := range n.env.NeighborIDs {
		if nid == id {
			return port, true
		}
	}
	return 0, false
}

// localTuple is this node's candidacy: the deepest marked neighbor (ties by
// minimum ID) with this node as the adoptee, or the root-election fallback
// (depth 0) when no neighbor is marked yet.
func (n *dpNode) localTuple() floodTuple {
	bestDepth, bestMarked := 0, 0
	for port := 0; port < n.env.Degree; port++ {
		d := int(n.markedNbr[port])
		if d < 0 {
			continue
		}
		id := n.env.NeighborIDs[port]
		if d > bestDepth || (d == bestDepth && id < bestMarked) {
			bestDepth, bestMarked = d, id
		}
	}
	return floodTuple{depth: bestDepth, markedID: bestMarked, candID: n.env.ID}
}

func (n *dpNode) handleElimMsg(port int, msg []byte) {
	a, b, c, ok := decodeElim(msg)
	if !ok {
		n.fail(failProtocol)
		return
	}
	if n.markedNbr[port] >= 0 {
		return // late traffic from a marked neighbor: ignore
	}
	senderID := n.env.NeighborIDs[port]
	if b == senderID {
		// Announcement (id, depth, parentID) encoded as (depth=a, id=b, parent=c).
		n.markedNbr[port] = int32(a)
		if c == n.env.ID && n.marked {
			// The sender adopted us as its parent: insert into the sorted
			// child list with its port kept index-aligned.
			pos := sort.SearchInts(n.childIDs, senderID)
			n.childIDs = append(n.childIDs, 0)
			copy(n.childIDs[pos+1:], n.childIDs[pos:])
			n.childIDs[pos] = senderID
			n.childPorts = append(n.childPorts, 0)
			copy(n.childPorts[pos+1:], n.childPorts[pos:])
			n.childPorts[pos] = port
		}
		return
	}
	// Flood tuple.
	t := floodTuple{depth: a, markedID: b, candID: c}
	if !n.marked && t.better(n.tuple) {
		n.tuple = t
	}
}

// encodeElim writes an elimination message (three u32 fields) into the
// node's encoding buffer; the result is valid until the next call.
func (n *dpNode) encodeElim(a, b, c int) []byte {
	binary.LittleEndian.PutUint32(n.elimMsg[0:], uint32(a))
	binary.LittleEndian.PutUint32(n.elimMsg[4:], uint32(b))
	binary.LittleEndian.PutUint32(n.elimMsg[8:], uint32(c))
	return n.elimMsg[:]
}

// decodeElim reads the three u32 fields of an elimination message, ok=false
// when it is truncated (trailing bytes are ignored).
func decodeElim(msg []byte) (a, b, c int, ok bool) {
	if len(msg) < elimPayloadBytes {
		return 0, 0, 0, false
	}
	a = int(binary.LittleEndian.Uint32(msg[0:]))
	b = int(binary.LittleEndian.Uint32(msg[4:]))
	c = int(binary.LittleEndian.Uint32(msg[8:]))
	return a, b, c, true
}

// --- bags phase (Lemma 5.3) ---

func (n *dpNode) enterBagsPhase() {
	n.phase = phaseBags
	// The child set is final once elimination ends; the table buffers can be
	// laid out childIDs-aligned now.
	n.childTables = make([]childTable, len(n.childIDs))
	n.tableGot = make([]bool, len(n.childIDs))
	if !n.marked {
		// Report large treedepth (Algorithm 2, instruction 22) and tell all
		// neighbors, so the failure reaches the tree.
		n.fail(failTdExceeded)
		n.out.Failure = failTdExceeded
		n.env.Tag(KindBag)
		var w wireWriter
		w.u8(tagBagPeer)
		w.u8(failTdExceeded)
		w.u32(0)
		for port := 0; port < n.env.Degree; port++ {
			n.send[port].Push(w.buf)
		}
		n.phase = phaseDone
		return
	}
	if n.depth > n.cfg.depthBound() {
		n.fail(failTdExceeded)
	}
	if n.parentID < 0 {
		// The root's bag is itself; start the top-down propagation.
		n.setBag([]int{n.env.ID}, []bagVertex{{weight: n.env.Weight, labels: n.vertexLabelMask()}}, nil)
	}
}

func (n *dpNode) vertexLabelMask() uint32 {
	var mask uint32
	for i, name := range n.cfg.VertexLabelNames {
		if n.env.Labels[name] {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// setBag installs this node's bag and sends (a) the bag to each child and
// (b) the bag-peer verification message to every neighbor. info is
// index-aligned with the sorted bag.
func (n *dpNode) setBag(bag []int, info []bagVertex, parentEdges [][2]int) {
	n.bag = bag
	n.bagInfo = info
	n.haveBag = true
	n.env.Tag(KindBag)
	// G[B_u] = G[B_parent] plus this node's edges into the bag.
	n.bagEdges = append([][2]int(nil), parentEdges...)
	selfIdx := sort.SearchInts(bag, n.env.ID)
	for _, nid := range n.env.NeighborIDs {
		i := sort.SearchInts(bag, nid)
		if i < len(bag) && bag[i] == nid {
			lo, hi := selfIdx, i
			if lo > hi {
				lo, hi = hi, lo
			}
			n.bagEdges = append(n.bagEdges, [2]int{lo, hi})
		}
	}
	n.bagEdges = regular.NormalizeEdgePairs(n.bagEdges)

	// Send the child bag to each child: B_child = B_u + child (the child
	// adds itself), with per-vertex weight and label data.
	var w wireWriter
	w.u8(tagBag)
	w.u32(uint32(len(bag)))
	for i, id := range bag {
		w.u32(uint32(id))
		w.i64(n.bagInfo[i].weight)
		w.u32(n.bagInfo[i].labels)
	}
	w.u32(uint32(len(n.bagEdges)))
	for _, e := range n.bagEdges {
		w.u8(uint8(e[0]))
		w.u8(uint8(e[1]))
	}
	for i := range n.childIDs {
		n.send[n.childPorts[i]].Push(w.buf)
	}

	// Bag-peer verification to every neighbor.
	var pw wireWriter
	pw.u8(tagBagPeer)
	pw.u8(failNone)
	pw.u32(uint32(len(bag)))
	for _, id := range bag {
		pw.u32(uint32(id))
	}
	for port := 0; port < n.env.Degree; port++ {
		n.send[port].Push(pw.buf)
	}
}

func (n *dpNode) handleBagMsg(r *wireReader) error {
	count, err := r.u32()
	if err != nil {
		return err
	}
	parentBag := make([]int, 0, count)
	parentInfo := make([]bagVertex, 0, count)
	for i := uint32(0); i < count; i++ {
		id, err := r.u32()
		if err != nil {
			return err
		}
		weight, err := r.i64()
		if err != nil {
			return err
		}
		labels, err := r.u32()
		if err != nil {
			return err
		}
		parentBag = append(parentBag, int(id))
		parentInfo = append(parentInfo, bagVertex{weight: weight, labels: labels})
	}
	edgeCount, err := r.u32()
	if err != nil {
		return err
	}
	parentEdgesIdx := make([][2]int, 0, edgeCount)
	for i := uint32(0); i < edgeCount; i++ {
		a, err := r.u8()
		if err != nil {
			return err
		}
		b, err := r.u8()
		if err != nil {
			return err
		}
		parentEdgesIdx = append(parentEdgesIdx, [2]int{int(a), int(b)})
	}
	// Insert self into the sorted bag (and the aligned info slice); remap
	// parent edge indices.
	bag := append([]int(nil), parentBag...)
	pos := sort.SearchInts(bag, n.env.ID)
	bag = append(bag, 0)
	copy(bag[pos+1:], bag[pos:])
	bag[pos] = n.env.ID
	info := append(parentInfo, bagVertex{})
	copy(info[pos+1:], info[pos:])
	info[pos] = bagVertex{weight: n.env.Weight, labels: n.vertexLabelMask()}
	remap := func(i int) int {
		if i >= pos {
			return i + 1
		}
		return i
	}
	parentEdges := make([][2]int, 0, len(parentEdgesIdx))
	for _, e := range parentEdgesIdx {
		parentEdges = append(parentEdges, [2]int{remap(e[0]), remap(e[1])})
	}
	n.setBag(bag, info, parentEdges)
	return nil
}

func (n *dpNode) handleBagPeer(port int, r *wireReader) error {
	status, err := r.u8()
	if err != nil {
		return err
	}
	count, err := r.u32()
	if err != nil {
		return err
	}
	peerBag := make([]int, 0, count)
	for i := uint32(0); i < count; i++ {
		id, err := r.u32()
		if err != nil {
			return err
		}
		peerBag = append(peerBag, int(id))
	}
	n.peerBags++
	if status != failNone {
		n.peerFail = maxInt(n.peerFail, int(status))
		return nil
	}
	// Elimination check: this neighbor must be an ancestor or a descendant —
	// equivalently, our ID is in its bag or its ID will be in ours. We defer
	// the "its ID in ours" half until our bag arrives (checked in progress).
	nid := n.env.NeighborIDs[port]
	inPeer := containsSorted(peerBag, n.env.ID)
	if !inPeer {
		// Remember: neighbor nid must be in our bag.
		n.mustBeAncestor = append(n.mustBeAncestor, nid)
	}
	return nil
}

func containsSorted(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
