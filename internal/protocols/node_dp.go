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
	switch n.cfg.Mode {
	case ModeDecide:
		n.finalDecide, err = n.cache.BaseDenseSet(base)
	case ModeOptimize:
		n.finalOpt, err = n.cache.BaseDenseOpt(base, n.ownerRank(), n.cfg.Maximize)
	case ModeCount:
		n.finalCount, err = n.cache.BaseDenseCount(base)
	case ModeCheckMarked:
		n.finalOpt, err = n.cache.BaseDenseOpt(base, n.ownerRank(), n.cfg.Maximize)
		if err != nil {
			return err
		}
		marked, err := n.markedBaseClassSet(base)
		if err != nil {
			return err
		}
		n.finalMarked = n.cache.InternClassSet(marked)
		n.markedWeight = n.localMarkedWeight(base)
	default:
		return fmt.Errorf("%w: unknown mode %d", ErrProtocol, n.cfg.Mode)
	}
	return err
}

// markedBaseClassSet filters base classes to those whose selection matches
// the marked set on the elements owned by this node.
func (n *dpNode) markedBaseClassSet(base *wterm.TerminalGraph) (regular.ClassSet, error) {
	pred := n.cfg.Pred
	classes, err := pred.HomBase(base)
	if err != nil {
		return nil, err
	}
	own := n.ownerRank()
	out := make(regular.ClassSet)
	switch pred.SetKind() {
	case regular.SetVertex:
		wantBit := uint64(0)
		if n.env.Labels[MarkLabel] {
			wantBit = 1 << uint(own)
		}
		for _, bc := range classes {
			if bc.Sel.VertexMask&(1<<uint(own)) == wantBit {
				out[bc.Class.Key()] = bc.Class
			}
		}
	case regular.SetEdge:
		want := n.markedOwnedPairs()
		for _, bc := range classes {
			got := regular.NormalizeEdgePairs(append([][2]int(nil), bc.Sel.EdgePairs...))
			if pairsEqual(got, want) {
				out[bc.Class.Key()] = bc.Class
			}
		}
	default:
		return nil, fmt.Errorf("%w: CheckMarked needs a predicate with a free set variable", ErrProtocol)
	}
	return out, nil
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

func writeEntries(w *wireWriter, entries []tableEntry) {
	w.u32(uint32(len(entries)))
	for _, e := range entries {
		w.bytes(e.key)
		w.i64(e.value)
	}
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
		writeEntries(&w, nil)
		writeEntries(&w, nil)
		w.i64(0)
	} else {
		n.writeMarkedEntries(&w)
		n.writeMainEntries(&w)
		w.i64(n.markedWeight)
	}
	n.send[n.parentPort].Push(w.buf)
	if n.cfg.Mode == ModeOptimize {
		n.phase = phaseDown // wait for the target class
	} else {
		n.phase = phaseDown // wait for the verdict
	}
}

// Tables cross the wire in canonical (key-sorted) entry order. Dense tables
// already hold their IDs in that order, so serialization is a straight walk
// directly from the interner's key strings onto the wire — same bytes as
// the historical entry-list assembly (u32 count, then per entry
// length-prefixed key + i64 value), without materializing a []byte copy of
// every key first.

func (n *dpNode) writeMarkedEntries(w *wireWriter) {
	if n.cfg.Mode != ModeCheckMarked {
		w.u32(0)
		return
	}
	w.u32(uint32(len(n.finalMarked.IDs)))
	for _, id := range n.finalMarked.IDs {
		w.str(n.cache.KeyOf(id))
		w.i64(0)
	}
}

func (n *dpNode) writeMainEntries(w *wireWriter) {
	switch n.cfg.Mode {
	case ModeDecide:
		w.u32(uint32(len(n.finalDecide.IDs)))
		for _, id := range n.finalDecide.IDs {
			w.str(n.cache.KeyOf(id))
			w.i64(0)
		}
	case ModeOptimize, ModeCheckMarked:
		w.u32(uint32(len(n.finalOpt.IDs)))
		for i, id := range n.finalOpt.IDs {
			w.str(n.cache.KeyOf(id))
			w.i64(n.finalOpt.Weights[i])
		}
	case ModeCount:
		w.u32(uint32(len(n.finalCount.IDs)))
		for i, id := range n.finalCount.IDs {
			w.str(n.cache.KeyOf(id))
			w.i64(n.finalCount.Counts[i])
		}
	default:
		w.u32(0)
	}
}

// foldChildren folds every child's table into this node's, in increasing
// child-ID order (Lemma 4.3 / 4.6 / the counting analogue). All folds run on
// the node's cached dense algebra; iteration order is canonical, so verdicts,
// weights, and tie-breaking match the uncached map folds exactly.
func (n *dpNode) foldChildren() error {
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
		switch n.cfg.Mode {
		case ModeDecide:
			child, err := n.decodeDenseSet(ct.entries)
			if err != nil {
				return err
			}
			n.finalDecide, err = n.cache.FoldDecideDense(g, n.finalDecide, child)
			if err != nil {
				return err
			}
		case ModeOptimize:
			child, err := n.decodeDenseOpt(ct.entries)
			if err != nil {
				return err
			}
			var back map[regular.ClassID]regular.DenseBack
			n.finalOpt, back, err = n.cache.FoldOptDense(g, n.finalOpt, child, n.cfg.Maximize)
			if err != nil {
				return err
			}
			n.stages = append(n.stages, upStage{childID: childID, back: back})
		case ModeCount:
			child, err := n.decodeDenseCount(ct.entries)
			if err != nil {
				return err
			}
			n.finalCount, err = n.cache.FoldCountDense(g, n.finalCount, child)
			if err != nil {
				return err
			}
		case ModeCheckMarked:
			childMarked, err := n.decodeDenseSet(ct.marked)
			if err != nil {
				return err
			}
			n.finalMarked, err = n.cache.FoldDecideDense(g, n.finalMarked, childMarked)
			if err != nil {
				return err
			}
			childOpt, err := n.decodeDenseOpt(ct.entries)
			if err != nil {
				return err
			}
			n.finalOpt, _, err = n.cache.FoldOptDense(g, n.finalOpt, childOpt, n.cfg.Maximize)
			if err != nil {
				return err
			}
			n.markedWeight += ct.weight
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

// decodeWire interns every wire entry in received order. Honest senders emit
// canonical (key-sorted, duplicate-free) entries, so the ID list is already
// canonical for our interner too (both orders are the lexicographic key
// order) — one InternWire per entry and no sorting. A violation means a
// corrupted or malformed message; legacy map decoding collapsed those
// silently (last duplicate wins, order recomputed), so we restore exactly
// those semantics before returning.
func (n *dpNode) decodeWire(entries []tableEntry) ([]regular.ClassID, []int64, error) {
	ids := make([]regular.ClassID, 0, len(entries))
	vals := make([]int64, 0, len(entries))
	canonical := true
	for i, e := range entries {
		id, err := n.cache.InternWire(e.key)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 && n.cache.KeyOf(ids[len(ids)-1]) >= n.cache.KeyOf(id) {
			canonical = false
		}
		ids = append(ids, id)
		vals = append(vals, e.value)
	}
	if canonical {
		return ids, vals, nil
	}
	// Map semantics: last occurrence of a key wins, then canonical order.
	byID := make(map[regular.ClassID]int64, len(ids))
	uniq := ids[:0]
	for i, id := range ids {
		if _, seen := byID[id]; !seen {
			uniq = append(uniq, id)
		}
		byID[id] = vals[i]
	}
	n.cache.SortCanonical(uniq)
	vals = vals[:0]
	for _, id := range uniq {
		vals = append(vals, byID[id])
	}
	return uniq, vals, nil
}

func (n *dpNode) decodeDenseSet(entries []tableEntry) (regular.DenseSet, error) {
	ids, _, err := n.decodeWire(entries)
	if err != nil {
		return regular.DenseSet{}, err
	}
	return regular.DenseSet{IDs: ids}, nil
}

func (n *dpNode) decodeDenseOpt(entries []tableEntry) (regular.DenseOpt, error) {
	ids, vals, err := n.decodeWire(entries)
	if err != nil {
		return regular.DenseOpt{}, err
	}
	return regular.DenseOpt{IDs: ids, Weights: vals}, nil
}

func (n *dpNode) decodeDenseCount(entries []tableEntry) (regular.DenseCount, error) {
	ids, vals, err := n.decodeWire(entries)
	if err != nil {
		return regular.DenseCount{}, err
	}
	return regular.DenseCount{IDs: ids, Counts: vals}, nil
}

// --- root verdict and downward phase ---

func (n *dpNode) rootFinish() {
	n.out.IsRoot = true
	switch n.cfg.Mode {
	case ModeDecide:
		accepted := false
		if n.failure == 0 {
			var err error
			accepted, err = n.cache.AnyAcceptingDense(n.finalDecide)
			if err != nil {
				n.failPred(err)
			}
		}
		n.out.Accepted = accepted && n.failure == 0
		n.broadcastVerdict()
	case ModeCount:
		var total int64
		if n.failure == 0 {
			var err error
			total, err = n.cache.TotalAcceptingDense(n.finalCount)
			if err != nil {
				n.failPred(err)
			}
		}
		n.out.Count = total
		n.broadcastVerdict()
	case ModeCheckMarked:
		accepted := false
		if n.failure == 0 {
			okMarked, err := n.cache.AnyAcceptingDense(n.finalMarked)
			if err != nil {
				n.failPred(err)
			}
			_, bestW, found, err := n.cache.BestAcceptingDense(n.finalOpt, n.cfg.Maximize)
			if err != nil {
				n.failPred(err)
			}
			accepted = okMarked && found && bestW == n.markedWeight
		}
		n.out.Accepted = accepted && n.failure == 0
		n.broadcastVerdict()
	case ModeOptimize:
		if n.failure != 0 {
			n.broadcastVerdict()
			return
		}
		bestID, bestW, found, err := n.cache.BestAcceptingDense(n.finalOpt, n.cfg.Maximize)
		if err != nil {
			n.failPred(err)
			n.broadcastVerdict()
			return
		}
		n.out.Found = found
		n.out.Weight = bestW
		if !found {
			n.broadcastVerdict()
			return
		}
		n.applyTarget(bestID)
	}
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
	if !denseOptHas(n.finalOpt, id) {
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
		b, ok := st.back[cur]
		if !ok {
			n.fail(failProtocol)
			n.broadcastVerdict()
			return
		}
		targets[st.childID] = n.cache.KeyOf(b.Child)
		cur = b.Acc
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

// denseOptHas reports whether the OPT table carries an entry for id.
func denseOptHas(t regular.DenseOpt, id regular.ClassID) bool {
	for _, x := range t.IDs {
		if x == id {
			return true
		}
	}
	return false
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
	// denseOptHas check inside applyTarget.
	id, ok := n.cache.LookupKey(string(key))
	if !ok {
		n.fail(failProtocol)
		n.broadcastVerdict()
		return nil
	}
	n.applyTarget(id)
	return nil
}
