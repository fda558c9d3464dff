package protocols

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/regular"
	"repro/internal/wterm"
)

// handle dispatches one complete logical message in the event-driven phases.
func (n *dpNode) handle(port int, msg []byte) error {
	r := &wireReader{buf: msg}
	tag, err := r.u8()
	if err != nil {
		return err
	}
	switch tag {
	case tagBag:
		return n.handleBagMsg(r)
	case tagBagPeer:
		return n.handleBagPeer(port, r)
	case tagTable:
		return n.handleTable(port, r)
	case tagVerdict:
		return n.handleVerdict(r)
	case tagTarget:
		return n.handleTarget(r)
	default:
		return fmt.Errorf("%w: unknown tag %d", ErrProtocol, tag)
	}
}

// progress advances the event-driven state machine when its preconditions
// become true.
func (n *dpNode) progress() {
	if n.phase != phaseBags && n.phase != phaseUp {
		return
	}
	if n.phase == phaseBags {
		if !n.haveBag || n.peerBags < n.env.Degree {
			return
		}
		// Elimination-forest verification: every neighbor must be an
		// ancestor (in our bag) or a descendant (we are in its bag).
		if n.peerFail > 0 {
			n.fail(n.peerFail)
		}
		for _, nid := range n.mustBeAncestor {
			if !containsSorted(n.bag, nid) {
				n.fail(failProtocol)
			}
		}
		if n.failure == 0 {
			if err := n.buildBaseTables(); err != nil {
				n.failPred(err)
			}
		}
		// The base tables were the last reader of the bag's vertex data
		// and of the ancestor checks; drop them for the rest of the run.
		n.bagInfo, n.mustBeAncestor = nil, nil
		n.phase = phaseUp
	}
	n.tryFoldAndSend()
}

// ownerRank is this node's terminal rank within its (sorted) bag.
func (n *dpNode) ownerRank() int { return sort.SearchInts(n.bag, n.env.ID) }

// baseGraph materializes this node's edge-owned base graph from purely local
// knowledge: the bag (IDs, weights, labels) received from the parent and the
// node's own incident edges into the bag.
func (n *dpNode) baseGraph() (*wterm.TerminalGraph, error) {
	k := len(n.bag)
	local := graph.New(k)
	for i := range n.bag {
		info := n.bagInfo[i]
		local.SetVertexWeight(i, info.weight)
		for bit, name := range n.cfg.VertexLabelNames {
			if info.labels&(1<<uint(bit)) != 0 {
				local.SetVertexLabel(name, i)
			}
		}
	}
	own := n.ownerRank()
	for port, nid := range n.env.NeighborIDs {
		i := sort.SearchInts(n.bag, nid)
		if i >= len(n.bag) || n.bag[i] != nid {
			continue // not an ancestor: the edge is owned elsewhere
		}
		id, err := local.AddEdge(own, i)
		if err != nil {
			return nil, err
		}
		local.SetEdgeWeight(id, n.env.PortWeight[port])
		for _, name := range n.cfg.EdgeLabelNames {
			if n.env.PortLabels[port][name] {
				local.SetEdgeLabel(name, id)
			}
		}
	}
	terms := make([]int, k)
	for i := range terms {
		terms[i] = i
	}
	return &wterm.TerminalGraph{G: local, Terminals: terms, Orig: append([]int(nil), n.bag...)}, nil
}

// buildBaseTables initializes the DP tables from the base graph. This is
// also where the node's DP cache is born: a handle on the run-spanning
// shared cache when Config.Cache is set, a private instance otherwise.
// Either way every memo stays computation-local, so the protocol's round
// count and wire bytes are untouched by caching.
func (n *dpNode) buildBaseTables() error {
	base, err := n.baseGraph()
	if err != nil {
		return err
	}
	if n.cfg.Cache != nil {
		n.cache = n.cfg.Cache.Handle()
	} else {
		n.cache = regular.NewCached(n.cfg.Pred)
	}
	if n.cfg.Mode < ModeDecide || n.cfg.Mode > ModeCheckMarked {
		return fmt.Errorf("%w: unknown mode %d", ErrProtocol, n.cfg.Mode)
	}
	if n.final, err = n.cache.Base(n.cfg.semiring(), base, n.ownerRank(), nil); err != nil {
		return err
	}
	if n.cfg.Mode != ModeCheckMarked {
		return nil
	}
	keep, err := n.markedFilter()
	if err != nil {
		return err
	}
	n.finalMarked, err = n.cache.Base(regular.Exists, base, n.ownerRank(), keep)
	n.markedWeight = n.localMarkedWeight(base)
	return err
}

// markedFilter admits the base selections that match the marked set on the
// elements owned by this node.
func (n *dpNode) markedFilter() (func(regular.Selection) bool, error) {
	own := n.ownerRank()
	switch n.cfg.Pred.SetKind() {
	case regular.SetVertex:
		wantBit := uint64(0)
		if n.env.Labels[MarkLabel] {
			wantBit = 1 << uint(own)
		}
		return func(sel regular.Selection) bool { return sel.VertexMask&(1<<uint(own)) == wantBit }, nil
	case regular.SetEdge:
		want := n.markedOwnedPairs()
		return func(sel regular.Selection) bool {
			return pairsEqual(regular.NormalizeEdgePairs(append([][2]int(nil), sel.EdgePairs...)), want)
		}, nil
	}
	return nil, fmt.Errorf("%w: CheckMarked needs a predicate with a free set variable", ErrProtocol)
}

// markedOwnedPairs lists this node's owned edges carrying the mark label, as
// terminal rank pairs.
func (n *dpNode) markedOwnedPairs() [][2]int {
	own := n.ownerRank()
	var pairs [][2]int
	for port, nid := range n.env.NeighborIDs {
		i := sort.SearchInts(n.bag, nid)
		if i >= len(n.bag) || n.bag[i] != nid {
			continue
		}
		if n.env.PortLabels[port][MarkLabel] {
			lo, hi := own, i
			if lo > hi {
				lo, hi = hi, lo
			}
			pairs = append(pairs, [2]int{lo, hi})
		}
	}
	return regular.NormalizeEdgePairs(pairs)
}

func pairsEqual(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// localMarkedWeight is the marked weight owned by this node.
func (n *dpNode) localMarkedWeight(base *wterm.TerminalGraph) int64 {
	switch n.cfg.Pred.SetKind() {
	case regular.SetVertex:
		if n.env.Labels[MarkLabel] {
			return n.env.Weight
		}
	case regular.SetEdge:
		var total int64
		for port, nid := range n.env.NeighborIDs {
			if containsSorted(n.bag, nid) && n.env.PortLabels[port][MarkLabel] {
				total += n.env.PortWeight[port]
			}
		}
		return total
	}
	return 0
}

// handleTable stores a child's table in its childIDs-aligned slot; folding
// happens in progress once all children have reported. A table from a
// neighbor that is not a child (possible only under corrupted traffic) is
// ignored; a duplicate overwrites its slot without re-counting.
func (n *dpNode) handleTable(port int, r *wireReader) error {
	status, err := r.u8()
	if err != nil {
		return err
	}
	// Entry keys alias the message, and a popped message is only valid
	// until the stream's next Feed: the table keeps its own copy.
	r = &wireReader{buf: append([]byte(nil), r.buf...)}
	markedEntries, err := readEntries(r)
	if err != nil {
		return err
	}
	entries, err := readEntries(r)
	if err != nil {
		return err
	}
	weight, err := r.i64()
	if err != nil {
		return err
	}
	childID := n.env.NeighborIDs[port]
	i := sort.SearchInts(n.childIDs, childID)
	if i >= len(n.childIDs) || n.childIDs[i] != childID {
		return nil
	}
	n.childTables[i] = childTable{
		failure: int(status),
		entries: entries,
		marked:  markedEntries,
		weight:  weight,
	}
	if !n.tableGot[i] {
		n.tableGot[i] = true
		n.tablesGot++
	}
	return nil
}

// readEntries decodes one table. Entry keys alias the reader's buffer
// (handleTable's own copy of the message) instead of being copied one by
// one — with thousands of nodes each receiving tables with hundreds of
// entries, the per-entry copies dominated the DP phase's allocation
// profile.
func readEntries(r *wireReader) ([]tableEntry, error) {
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := make([]tableEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		key, err := r.bytesView()
		if err != nil {
			return nil, err
		}
		value, err := r.i64()
		if err != nil {
			return nil, err
		}
		out = append(out, tableEntry{key: key, value: value})
	}
	return out, nil
}

// tryFoldAndSend folds all children (once they have all reported) and sends
// the node's table to its parent, or — at the root — computes the verdict
// and starts the downward phase.
func (n *dpNode) tryFoldAndSend() {
	if n.phase != phaseUp || n.sentUp {
		return
	}
	if n.tablesGot < len(n.childIDs) {
		return
	}
	if n.failure == 0 {
		if err := n.foldChildren(); err != nil {
			n.failPred(err)
		}
	}
	// The children's tables are folded in (or the node failed): release
	// them instead of holding them until the run ends.
	clear(n.childTables)
	n.sentUp = true
	if n.parentID < 0 {
		n.rootFinish()
		return
	}
	// Serialize the table to the parent.
	n.env.Tag(KindTable)
	var w wireWriter
	w.u8(tagTable)
	w.u8(uint8(n.failure))
	if n.failure != 0 {
		n.writeTable(&w, regular.Table{})
		n.writeTable(&w, regular.Table{})
		w.i64(0)
	} else {
		n.writeTable(&w, n.finalMarked)
		n.writeTable(&w, n.final)
		w.i64(n.markedWeight)
	}
	n.send[n.parentPort].Push(w.buf)
	n.phase = phaseDown // wait for the verdict or the target class
}

// writeTable puts a table on the wire in canonical (key-sorted) entry
// order: u32 count, then per entry the length-prefixed key and an i64 value
// (0 for a decision table). Dense tables already hold their IDs in that
// order, so this is a straight walk from the interner's key strings.
func (n *dpNode) writeTable(w *wireWriter, t regular.Table) {
	w.u32(uint32(len(t.IDs)))
	for i, id := range t.IDs {
		w.str(n.cache.KeyOf(id))
		var v int64
		if t.Vals != nil {
			v = t.Vals[i]
		}
		w.i64(v)
	}
}

// foldChildren folds every child's table into this node's, in increasing
// child-ID order (Lemma 4.3 / 4.6 / the counting analogue). All folds run on
// the node's cached dense algebra; iteration order is canonical, so verdicts,
// weights, and tie-breaking match the uncached map folds exactly.
func (n *dpNode) foldChildren() error {
	s := n.cfg.semiring()
	for ci, childID := range n.childIDs {
		ct := n.childTables[ci]
		if ct.failure != 0 {
			n.fail(ct.failure)
			return nil
		}
		childBag := insertSorted(n.bag, childID)
		glue, err := wterm.GluingFromBags(n.bag, childBag, n.bag)
		if err != nil {
			return err
		}
		g := n.cache.InternGluing(glue)
		if n.cfg.Mode == ModeCheckMarked {
			childMarked, err := n.decodeTable(regular.Exists, ct.marked)
			if err != nil {
				return err
			}
			n.finalMarked, _, err = n.cache.Fold(regular.Exists, g, n.finalMarked, childMarked)
			if err != nil {
				return err
			}
			n.markedWeight += ct.weight
		}
		child, err := n.decodeTable(s, ct.entries)
		if err != nil {
			return err
		}
		var back []regular.Back
		n.final, back, err = n.cache.Fold(s, g, n.final, child)
		if err != nil {
			return err
		}
		if n.cfg.Mode == ModeOptimize {
			n.stages = append(n.stages, upStage{childID: childID, table: n.final, back: back})
		}
	}
	return nil
}

func insertSorted(xs []int, v int) []int {
	out := make([]int, 0, len(xs)+1)
	pos := sort.SearchInts(xs, v)
	out = append(out, xs[:pos]...)
	out = append(out, v)
	out = append(out, xs[pos:]...)
	return out
}

// decodeTable interns a child's wire table for a fold under s, dropping
// the values of a decision table. Honest senders emit canonical
// (key-sorted, duplicate-free) entries, so the ID list is already canonical
// for our interner too (both orders are the lexicographic key order) — one
// InternWire per entry and no sorting. A violation means a corrupted or
// malformed message; legacy map decoding collapsed those silently (last
// duplicate wins, order recomputed), so we restore exactly those semantics
// before returning.
func (n *dpNode) decodeTable(s regular.Semiring, entries []tableEntry) (regular.Table, error) {
	t := regular.Table{IDs: make([]regular.ClassID, 0, len(entries))}
	if s != regular.Exists {
		t.Vals = make([]int64, 0, len(entries))
	}
	canonical := true
	for i, e := range entries {
		id, err := n.cache.InternWire(e.key)
		if err != nil {
			return regular.Table{}, err
		}
		if i > 0 && n.cache.KeyOf(t.IDs[i-1]) >= n.cache.KeyOf(id) {
			canonical = false
		}
		t.IDs = append(t.IDs, id)
		if t.Vals != nil {
			t.Vals = append(t.Vals, e.value)
		}
	}
	if canonical {
		return t, nil
	}
	// Map semantics: last occurrence of a key wins, then canonical order.
	byID := make(map[regular.ClassID]int64, len(t.IDs))
	uniq := t.IDs[:0]
	for i, id := range t.IDs {
		if _, seen := byID[id]; !seen {
			uniq = append(uniq, id)
		}
		byID[id] = entries[i].value
	}
	n.cache.SortCanonical(uniq)
	t.IDs = uniq
	if t.Vals != nil {
		t.Vals = t.Vals[:0]
		for _, id := range uniq {
			t.Vals = append(t.Vals, byID[id])
		}
	}
	return t, nil
}

// --- root verdict and downward phase ---

func (n *dpNode) rootFinish() {
	n.out.IsRoot = true
	if n.failure != 0 {
		n.broadcastVerdict()
		return
	}
	markedOK := true
	var err error
	if n.cfg.Mode == ModeCheckMarked {
		_, _, markedOK, err = n.cache.ReduceAccepting(regular.Exists, n.finalMarked)
	}
	var best regular.ClassID
	var val int64
	var found bool
	if err == nil {
		best, val, found, err = n.cache.ReduceAccepting(n.cfg.semiring(), n.final)
	}
	if err != nil {
		n.failPred(err)
		n.broadcastVerdict()
		return
	}
	switch n.cfg.Mode {
	case ModeDecide:
		n.out.Accepted = found
	case ModeCount:
		n.out.Count = val
	case ModeCheckMarked:
		n.out.Accepted = markedOK && found && val == n.markedWeight
	case ModeOptimize:
		n.out.Found, n.out.Weight = found, val
		if found {
			n.applyTarget(best)
			return
		}
	}
	n.broadcastVerdict()
}

func (n *dpNode) broadcastVerdict() {
	n.env.Tag(KindVerdict)
	var w wireWriter
	w.u8(tagVerdict)
	w.u8(uint8(n.failure))
	if n.out.Accepted {
		w.u8(1)
	} else {
		w.u8(0)
	}
	if n.out.Found {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.i64(n.out.Count)
	for i := range n.childIDs {
		n.send[n.childPorts[i]].Push(w.buf)
	}
	n.phase = phaseDone
}

func (n *dpNode) handleVerdict(r *wireReader) error {
	status, err := r.u8()
	if err != nil {
		return err
	}
	accepted, err := r.u8()
	if err != nil {
		return err
	}
	found, err := r.u8()
	if err != nil {
		return err
	}
	count, err := r.i64()
	if err != nil {
		return err
	}
	n.fail(int(status))
	n.out.Accepted = accepted != 0
	n.out.Found = found != 0
	n.out.Count = count
	n.broadcastVerdict() // forward down and finish
	return nil
}

// applyTarget installs this node's target class, marks its owned selection,
// and forwards per-child targets computed by walking the fold stages back.
// Targets still cross the wire as class keys (the canonical encoding); the
// dense back-pointer walk happens on interned IDs.
func (n *dpNode) applyTarget(id regular.ClassID) {
	if n.final.Index(id) < 0 {
		n.fail(failProtocol)
		n.broadcastVerdict()
		return
	}
	sel, err := n.cache.SelectionID(id)
	if err != nil {
		n.failPred(err)
		n.broadcastVerdict()
		return
	}
	own := n.ownerRank()
	switch n.cfg.Pred.SetKind() {
	case regular.SetVertex:
		n.out.Selected = sel.VertexMask&(1<<uint(own)) != 0
	case regular.SetEdge:
		for _, pair := range sel.EdgePairs {
			other := pair[0]
			if other == own {
				other = pair[1]
			}
			if other != own {
				n.out.SelectedEdges = append(n.out.SelectedEdges, n.bag[other])
			}
		}
		sort.Ints(n.out.SelectedEdges)
	}
	// Walk stages backwards to find each child's target class.
	cur := id
	targets := make(map[int]string, len(n.stages))
	for s := len(n.stages) - 1; s >= 0; s-- {
		st := n.stages[s]
		j := st.table.Index(cur)
		if j < 0 {
			n.fail(failProtocol)
			n.broadcastVerdict()
			return
		}
		targets[st.childID] = n.cache.KeyOf(st.back[j].Child)
		cur = st.back[j].Acc
	}
	n.env.Tag(KindTarget)
	for i, childID := range n.childIDs {
		var w wireWriter
		w.u8(tagTarget)
		w.u8(uint8(n.failure))
		w.str(targets[childID])
		n.send[n.childPorts[i]].Push(w.buf)
	}
	n.phase = phaseDone
}

func (n *dpNode) handleTarget(r *wireReader) error {
	status, err := r.u8()
	if err != nil {
		return err
	}
	key, err := r.bytes()
	if err != nil {
		return err
	}
	if status != failNone {
		n.fail(int(status))
		n.broadcastVerdict()
		return nil
	}
	if n.cache == nil {
		// A target reached a node that never built tables (possible only
		// under corrupted traffic): protocol violation.
		n.fail(failProtocol)
		n.broadcastVerdict()
		return nil
	}
	// The target is one of our table's classes, so its key is already
	// interned; an unknown key is a protocol violation, reported by the
	// table lookup inside applyTarget.
	id, ok := n.cache.LookupKey(string(key))
	if !ok {
		n.fail(failProtocol)
		n.broadcastVerdict()
		return nil
	}
	n.applyTarget(id)
	return nil
}
