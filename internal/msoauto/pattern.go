// Package msoauto is the generic MSO-to-regular-predicate engine for graphs
// of bounded treedepth: it realizes Theorem 4.2 (Borie–Parker–Tovey) for the
// elimination-tree derivations used by this library.
//
// The homomorphism class of a w-terminal graph (G_u, B_u) is a *canonically
// reduced pattern tree*: the terminals (the bag) with their mutual edges,
// labels, and free-set selection, plus the forest of forgotten vertices with
// their edges into their ancestor chain — recursively canonicalized, with
// sibling subtrees of identical type clamped at a multiplicity threshold
// τ(φ). For fixed (φ, d) the universe of such patterns is finite, the update
// function is gluing followed by re-canonicalization, and a class is
// accepting iff φ holds on the pattern's bounded-size representative graph,
// evaluated with the naive oracle. The clamping is the Gajarský–Hlinený
// kernelization the paper cites: sibling subtrees beyond τ copies are
// indistinguishable by MSO formulas of bounded rank.
package msoauto

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
)

// ErrPattern is wrapped by pattern encoding/decoding errors.
var ErrPattern = errors.New("msoauto: bad pattern")

// ErrLimit is wrapped by the errors of instances the engine refuses to
// evaluate: a bag with more than maxTerminals terminals, or a class
// representative past the formula's size limit.
var ErrLimit = errors.New("msoauto: engine limit exceeded")

// maxTerminals bounds bag sizes so masks fit in uint64.
const maxTerminals = 62

// pnode is one forgotten (internal) vertex of a pattern tree.
type pnode struct {
	termAdj    uint64 // edges to terminals, by terminal rank
	ancAdj     uint64 // edges to internal ancestors, bit j = j levels up (j >= 1)
	labels     uint32 // vertex labels, by index into the engine's vocabulary
	sel        bool   // vertex in the free set
	selTermEdg uint64 // selected edges to terminals (edge-set variables)
	selAncEdg  uint64 // selected edges to internal ancestors
	children   []*pnode
}

// pattern is a homomorphism class: terminal-side attributes plus the reduced
// internal forest.
type pattern struct {
	k         int      // number of terminals
	termAdj   []uint64 // termAdj[i] = edges from terminal i to terminals (symmetric)
	termLab   []uint32
	termSel   uint64
	termSelEd []uint64 // termSelEd[i] = selected bag edges from terminal i
	roots     []*pnode
}

// clonePNode deep-copies a subtree.
func clonePNode(n *pnode) *pnode {
	c := *n
	c.children = make([]*pnode, len(n.children))
	for i, ch := range n.children {
		c.children[i] = clonePNode(ch)
	}
	return &c
}

// encodeNode serializes a node header (without children).
func encodeNodeHeader(b []byte, n *pnode, numChildren int) []byte {
	b = appendU64(b, n.termAdj)
	b = appendU64(b, n.ancAdj)
	b = appendU32(b, n.labels)
	if n.sel {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendU64(b, n.selTermEdg)
	b = appendU64(b, n.selAncEdg)
	b = appendU16(b, uint16(numChildren))
	return b
}

// canonicalize sorts children recursively by their encodings and clamps
// sibling multiplicities at threshold (0 = no clamping). It returns the
// node's canonical binary encoding (preorder, child counts embedded).
func canonicalize(n *pnode, threshold int) []byte {
	kept, keptEncs := canonicalizeSiblings(n.children, threshold)
	n.children = kept
	out := encodeNodeHeader(nil, n, len(kept))
	for _, e := range keptEncs {
		out = append(out, e...)
	}
	return out
}

// canonicalizeSiblings canonicalizes a sibling list: each subtree is
// canonicalized, the list is sorted by encoding, and runs of identical
// encodings are clamped at threshold.
func canonicalizeSiblings(children []*pnode, threshold int) ([]*pnode, [][]byte) {
	encs := make([][]byte, len(children))
	for i, ch := range children {
		encs[i] = canonicalize(ch, threshold)
	}
	order := make([]int, len(children))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return string(encs[order[a]]) < string(encs[order[b]])
	})
	var kept []*pnode
	var keptEncs [][]byte
	run := 0
	for _, idx := range order {
		if len(keptEncs) > 0 && string(keptEncs[len(keptEncs)-1]) == string(encs[idx]) {
			run++
		} else {
			run = 1
		}
		if threshold > 0 && run > threshold {
			continue
		}
		kept = append(kept, children[idx])
		keptEncs = append(keptEncs, encs[idx])
	}
	return kept, keptEncs
}

// canonicalizeAndKey canonicalizes the whole pattern (clamping sibling
// multiplicities at threshold) and returns its canonical binary key, which
// doubles as the wire encoding.
func (p *pattern) canonicalizeAndKey(threshold int) string {
	kept, keptEncs := canonicalizeSiblings(p.roots, threshold)
	p.roots = kept
	b := make([]byte, 0, 64)
	b = append(b, uint8(p.k))
	for i := 0; i < p.k; i++ {
		b = appendU64(b, p.termAdj[i])
		b = appendU32(b, p.termLab[i])
		b = appendU64(b, p.termSelEd[i])
	}
	b = appendU64(b, p.termSel)
	b = appendU16(b, uint16(len(kept)))
	for _, e := range keptEncs {
		b = append(b, e...)
	}
	return string(b)
}

// preCanonicalKey serializes the pattern exactly as built: children in
// construction order, no sorting, no clamping. Patterns with equal
// pre-canonical encodings are structurally identical, hence canonicalize to
// the same class — which makes this a sound memo key for canonicalizeAndKey
// without paying for the recursive sort first.
func (p *pattern) preCanonicalKey() string {
	b := make([]byte, 0, 64)
	b = append(b, uint8(p.k))
	for i := 0; i < p.k; i++ {
		b = appendU64(b, p.termAdj[i])
		b = appendU32(b, p.termLab[i])
		b = appendU64(b, p.termSelEd[i])
	}
	b = appendU64(b, p.termSel)
	b = appendU16(b, uint16(len(p.roots)))
	for _, r := range p.roots {
		b = encodePreOrder(b, r)
	}
	return string(b)
}

func encodePreOrder(b []byte, n *pnode) []byte {
	b = encodeNodeHeader(b, n, len(n.children))
	for _, ch := range n.children {
		b = encodePreOrder(b, ch)
	}
	return b
}

// decodePattern parses a pattern from its canonical key.
func decodePattern(data []byte) (*pattern, error) {
	r := &byteReader{buf: data}
	k, err := r.u8()
	if err != nil {
		return nil, err
	}
	p := &pattern{
		k:         int(k),
		termAdj:   make([]uint64, k),
		termLab:   make([]uint32, k),
		termSelEd: make([]uint64, k),
	}
	for i := 0; i < int(k); i++ {
		if p.termAdj[i], err = r.u64(); err != nil {
			return nil, err
		}
		if p.termLab[i], err = r.u32(); err != nil {
			return nil, err
		}
		if p.termSelEd[i], err = r.u64(); err != nil {
			return nil, err
		}
	}
	if p.termSel, err = r.u64(); err != nil {
		return nil, err
	}
	numRoots, err := r.u16()
	if err != nil {
		return nil, err
	}
	p.roots = make([]*pnode, numRoots)
	for i := range p.roots {
		if p.roots[i], err = decodeNode(r, 0); err != nil {
			return nil, err
		}
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrPattern, len(r.buf))
	}
	return p, nil
}

const maxPatternDepth = 1 << 16

func decodeNode(r *byteReader, depth int) (*pnode, error) {
	if depth > maxPatternDepth {
		return nil, fmt.Errorf("%w: pattern too deep", ErrPattern)
	}
	n := &pnode{}
	var err error
	if n.termAdj, err = r.u64(); err != nil {
		return nil, err
	}
	if n.ancAdj, err = r.u64(); err != nil {
		return nil, err
	}
	if n.labels, err = r.u32(); err != nil {
		return nil, err
	}
	selByte, err := r.u8()
	if err != nil {
		return nil, err
	}
	n.sel = selByte != 0
	if n.selTermEdg, err = r.u64(); err != nil {
		return nil, err
	}
	if n.selAncEdg, err = r.u64(); err != nil {
		return nil, err
	}
	numChildren, err := r.u16()
	if err != nil {
		return nil, err
	}
	n.children = make([]*pnode, numChildren)
	for i := range n.children {
		if n.children[i], err = decodeNode(r, depth+1); err != nil {
			return nil, err
		}
	}
	return n, nil
}

type byteReader struct{ buf []byte }

func (r *byteReader) u8() (uint8, error) {
	if len(r.buf) < 1 {
		return 0, fmt.Errorf("%w: truncated", ErrPattern)
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v, nil
}

func (r *byteReader) u16() (uint16, error) {
	if len(r.buf) < 2 {
		return 0, fmt.Errorf("%w: truncated", ErrPattern)
	}
	v := uint16(r.buf[0]) | uint16(r.buf[1])<<8
	r.buf = r.buf[2:]
	return v, nil
}

func (r *byteReader) u32() (uint32, error) {
	if len(r.buf) < 4 {
		return 0, fmt.Errorf("%w: truncated", ErrPattern)
	}
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(r.buf[i]) << uint(8*i)
	}
	r.buf = r.buf[4:]
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, fmt.Errorf("%w: truncated", ErrPattern)
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(r.buf[i]) << uint(8*i)
	}
	r.buf = r.buf[8:]
	return v, nil
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>uint(8*i)))
	}
	return b
}

// countNodes returns the number of internal nodes.
func (p *pattern) countNodes() int {
	var rec func(n *pnode) int
	rec = func(n *pnode) int {
		c := 1
		for _, ch := range n.children {
			c += rec(ch)
		}
		return c
	}
	total := 0
	for _, r := range p.roots {
		total += rec(r)
	}
	return total
}

// materialize builds the representative graph of the pattern: vertices
// 0..k-1 are the terminals, internal vertices follow. It returns the graph,
// the set of selected vertices, and the selected edge IDs (for free-set
// evaluation), plus an error if the pattern is inconsistent.
func (p *pattern) materialize(vertexLabels, edgeLabels []string) (*graph.Graph, []int, []int, error) {
	total := p.k + p.countNodes()
	g := graph.New(total)
	var selVerts []int
	var selEdges []int
	addEdge := func(a, b int, selected bool) error {
		id, err := g.AddEdge(a, b)
		if err != nil {
			return fmt.Errorf("%w: duplicate edge {%d,%d}", ErrPattern, a, b)
		}
		if selected {
			selEdges = append(selEdges, id)
		}
		return nil
	}
	for i := 0; i < p.k; i++ {
		for bit, name := range vertexLabels {
			if p.termLab[i]&(1<<uint(bit)) != 0 {
				g.SetVertexLabel(name, i)
			}
		}
		if p.termSel&(1<<uint(i)) != 0 {
			selVerts = append(selVerts, i)
		}
		for j := 0; j < i; j++ {
			if p.termAdj[i]&(1<<uint(j)) != 0 {
				if err := addEdge(j, i, p.termSelEd[i]&(1<<uint(j)) != 0); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	next := p.k
	var build func(n *pnode, chain []int) error
	build = func(n *pnode, chain []int) error {
		self := next
		next++
		for bit, name := range vertexLabels {
			if n.labels&(1<<uint(bit)) != 0 {
				g.SetVertexLabel(name, self)
			}
		}
		if n.sel {
			selVerts = append(selVerts, self)
		}
		for t := 0; t < p.k; t++ {
			if n.termAdj&(1<<uint(t)) != 0 {
				if err := addEdge(t, self, n.selTermEdg&(1<<uint(t)) != 0); err != nil {
					return err
				}
			}
		}
		for j := 1; j <= len(chain); j++ {
			if n.ancAdj&(1<<uint(j)) != 0 {
				anc := chain[len(chain)-j]
				if err := addEdge(anc, self, n.selAncEdg&(1<<uint(j)) != 0); err != nil {
					return err
				}
			}
		}
		childChain := append(chain, self)
		for _, ch := range n.children {
			if err := build(ch, childChain); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range p.roots {
		if err := build(r, nil); err != nil {
			return nil, nil, nil, err
		}
	}
	_ = edgeLabels // edge labels are not yet supported by the generic engine
	return g, selVerts, selEdges, nil
}

// forgetTerminal converts terminal rank t into an internal node: the
// pattern's roots become its children (their termAdj bit t moves to
// ancAdj at the appropriate height) and all terminal indices above t shift
// down. The forgotten vertex's own terminal attributes become the new
// internal root's attributes.
func (p *pattern) forgetTerminal(t int) error {
	if t < 0 || t >= p.k {
		return fmt.Errorf("%w: forget rank %d of %d", ErrPattern, t, p.k)
	}
	newRoot := &pnode{
		termAdj:    dropBit(p.termAdj[t], t),
		labels:     p.termLab[t],
		sel:        p.termSel&(1<<uint(t)) != 0,
		selTermEdg: dropBit(p.termSelEd[t], t),
		children:   p.roots,
	}
	// Re-root the old internal forest under newRoot: every node's bit-t
	// terminal adjacency becomes an ancestor adjacency at height depth+1.
	var shift func(n *pnode, depth int)
	shift = func(n *pnode, depth int) {
		if n.termAdj&(1<<uint(t)) != 0 {
			n.ancAdj |= 1 << uint(depth)
			if n.selTermEdg&(1<<uint(t)) != 0 {
				n.selAncEdg |= 1 << uint(depth)
			}
		}
		n.termAdj = dropBit(n.termAdj, t)
		n.selTermEdg = dropBit(n.selTermEdg, t)
		for _, ch := range n.children {
			shift(ch, depth+1)
		}
	}
	for _, r := range newRoot.children {
		shift(r, 1)
	}
	p.roots = []*pnode{newRoot}
	// Shrink the terminal side.
	p.k--
	p.termSel = dropBit(p.termSel, t)
	newAdj := make([]uint64, p.k)
	newLab := make([]uint32, p.k)
	newSelEd := make([]uint64, p.k)
	j := 0
	for i := 0; i <= p.k; i++ {
		if i == t {
			continue
		}
		newAdj[j] = dropBit(p.termAdj[i], t)
		newLab[j] = p.termLab[i]
		newSelEd[j] = dropBit(p.termSelEd[i], t)
		j++
	}
	p.termAdj, p.termLab, p.termSelEd = newAdj, newLab, newSelEd
	return nil
}

// dropBit removes bit t from a mask, shifting higher bits down.
func dropBit(mask uint64, t int) uint64 {
	low := mask & ((1 << uint(t)) - 1)
	high := mask >> uint(t+1)
	return low | high<<uint(t)
}
