package predicates

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/regular"
	"repro/internal/wterm"
)

// HSubgraph is the closed regular predicate "G contains H as a (not
// necessarily induced) subgraph" for a fixed pattern graph H. H-freeness —
// the application of Corollary 7.3 — is the negation of Decide.
//
// The class is a set of partial-embedding configurations: each H-vertex is
// unmapped, mapped to a terminal rank, or mapped to an already-forgotten
// ("internal") vertex; a bitmask records which H-edges are realized by
// edges of the graph derived so far. An internal H-vertex with an
// unrealized H-edge can never complete (future edges never touch internal
// vertices), so such configurations are pruned, and realized-mask-dominated
// configurations are discarded.
type HSubgraph struct {
	h *graph.Graph
	// homCache and composeCache memoize HomBase and Compose results; base
	// graphs and gluings repeat heavily across the many per-component runs
	// of the Corollary 7.3 driver.
	mu           sync.Mutex
	homCache     map[string][]regular.BaseClass
	composeCache map[string]composeResult
	// autos are the automorphisms of H (as vertex permutations) paired with
	// the induced edge-ID permutations; configurations are canonicalized up
	// to automorphism, which shrinks class sets considerably for symmetric
	// patterns such as cycles and cliques.
	autos []hAutomorphism
	full  uint16 // mask of all H-edges
}

type hAutomorphism struct {
	vperm []int
	eperm []int
}

type composeResult struct {
	class      regular.Class
	compatible bool
}

var _ regular.Predicate = (*HSubgraph)(nil)

// NewHSubgraph builds the predicate for pattern H (1 <= |V(H)| <= 8).
func NewHSubgraph(h *graph.Graph) (*HSubgraph, error) {
	if h.NumVertices() < 1 || h.NumVertices() > 8 {
		return nil, fmt.Errorf("predicates: HSubgraph supports 1..8 pattern vertices, got %d", h.NumVertices())
	}
	if h.NumEdges() > 16 {
		return nil, fmt.Errorf("predicates: HSubgraph supports up to 16 pattern edges, got %d", h.NumEdges())
	}
	p := &HSubgraph{
		h:            h.Clone(),
		homCache:     map[string][]regular.BaseClass{},
		composeCache: map[string]composeResult{},
	}
	p.autos = automorphisms(p.h)
	for _, e := range p.h.Edges() {
		p.full |= edgeBit(e.ID)
	}
	return p, nil
}

// automorphisms enumerates the automorphism group of h by backtracking.
func automorphisms(h *graph.Graph) []hAutomorphism {
	n := h.NumVertices()
	var out []hAutomorphism
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			eperm := make([]int, h.NumEdges())
			for _, e := range h.Edges() {
				id, ok := h.EdgeBetween(perm[e.U], perm[e.V])
				if !ok {
					return
				}
				eperm[e.ID] = id
			}
			out = append(out, hAutomorphism{vperm: append([]int(nil), perm...), eperm: eperm})
			return
		}
		for w := 0; w < n; w++ {
			if used[w] {
				continue
			}
			ok := true
			for u := 0; u < i; u++ {
				if h.HasEdge(i, u) != h.HasEdge(w, perm[u]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			perm[i] = w
			used[w] = true
			rec(i + 1)
			used[w] = false
		}
	}
	rec(0)
	return out
}

// applyAuto returns the config twisted by one automorphism.
func (p *HSubgraph) applyAuto(cfg hsubConfig, a hAutomorphism) hsubConfig {
	pv := p.h.NumVertices()
	mapped := hsubConfig{status: make([]uint8, pv)}
	for v := 0; v < pv; v++ {
		mapped.status[v] = cfg.status[a.vperm[v]]
	}
	for _, e := range p.h.Edges() {
		if cfg.realized&edgeBit(a.eperm[e.ID]) != 0 {
			mapped.realized |= edgeBit(e.ID)
		}
	}
	return mapped
}

// canonicalConfig returns the automorphism-minimal encoding of a config.
// Classes store only canonical representatives; Compose re-expands one
// operand through the group, so no joins are lost.
func (p *HSubgraph) canonicalConfig(cfg hsubConfig) hsubConfig {
	best := cfg
	bestEnc := cfg.encode()
	for _, a := range p.autos[1:] {
		mapped := p.applyAuto(cfg, a)
		if enc := mapped.encode(); enc < bestEnc {
			best, bestEnc = mapped, enc
		}
	}
	return best
}

// orbit returns all distinct automorphism images of a config.
func (p *HSubgraph) orbit(cfg hsubConfig) []hsubConfig {
	seen := map[string]bool{cfg.encode(): true}
	out := []hsubConfig{cfg}
	for _, a := range p.autos[1:] {
		mapped := p.applyAuto(cfg, a)
		if enc := mapped.encode(); !seen[enc] {
			seen[enc] = true
			out = append(out, mapped)
		}
	}
	return out
}

const (
	statusUnmapped = 0
	statusInternal = 0xFE
	// terminal rank r is encoded as r+1
)

// hsubConfig is one partial embedding: status per H-vertex plus the realized
// H-edge mask.
type hsubConfig struct {
	status   []uint8
	realized uint16
}

func (c hsubConfig) encode() string {
	b := make([]byte, 0, len(c.status)+2)
	b = append(b, c.status...)
	b = append(b, byte(c.realized), byte(c.realized>>8))
	return string(b)
}

type hsubClass struct {
	p       int      // |V(H)|
	found   bool     // absorbing: a complete embedding exists
	configs []string // encoded configs, sorted
}

func (c hsubClass) Key() string {
	b := make([]byte, 0, 5+len(c.configs)*(c.p+2))
	b = append(b, uint8(c.p))
	if c.found {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, uint8(len(c.configs)>>16), uint8(len(c.configs)>>8), uint8(len(c.configs)))
	for _, cfg := range c.configs {
		b = append(b, cfg...)
	}
	return string(b)
}

// Name implements regular.Predicate.
func (p *HSubgraph) Name() string {
	return fmt.Sprintf("h-subgraph(p=%d,m=%d)", p.h.NumVertices(), p.h.NumEdges())
}

// SetKind implements regular.Predicate.
func (*HSubgraph) SetKind() regular.SetKind { return regular.SetNone }

func (p *HSubgraph) newClass(set map[string]hsubConfig) hsubClass {
	// Absorbing acceptance: once a complete embedding exists the class needs
	// no further structure.
	for _, cfg := range set {
		if p.isComplete(cfg) {
			return hsubClass{p: p.h.NumVertices(), found: true}
		}
	}
	// Domination pruning: among configs with identical statuses, keep only
	// maximal realized masks.
	byStatus := map[string][]hsubConfig{}
	for _, cfg := range set {
		k := string(cfg.status)
		byStatus[k] = append(byStatus[k], cfg)
	}
	var configs []string
	for _, group := range byStatus {
		for i, a := range group {
			dominated := false
			for j, b := range group {
				if i == j {
					continue
				}
				if a.realized&^b.realized == 0 && (a.realized != b.realized || j < i) {
					dominated = true
					break
				}
			}
			if !dominated {
				configs = append(configs, a.encode())
			}
		}
	}
	sort.Strings(configs)
	return hsubClass{p: p.h.NumVertices(), configs: configs}
}

// edgeMaskBit returns the bit index of H-edge id.
func edgeBit(id int) uint16 { return 1 << uint(id) }

// valid prunes configurations in which an internal H-vertex has an
// unrealized H-edge.
func (p *HSubgraph) valid(cfg hsubConfig) bool {
	for _, e := range p.h.Edges() {
		if cfg.realized&edgeBit(e.ID) != 0 {
			continue
		}
		if cfg.status[e.U] == statusInternal || cfg.status[e.V] == statusInternal {
			return false
		}
	}
	return true
}

// isComplete reports whether every H-vertex is mapped and every H-edge
// realized.
func (p *HSubgraph) isComplete(cfg hsubConfig) bool {
	if cfg.realized != p.full {
		return false
	}
	for _, st := range cfg.status {
		if st == statusUnmapped {
			return false
		}
	}
	return true
}

// HomBase enumerates injective partial maps of V(H) into the base terminals;
// realized edges are those whose images are joined by an owned edge.
func (p *HSubgraph) HomBase(base *wterm.TerminalGraph) ([]regular.BaseClass, error) {
	n := base.NumTerminals()
	if err := checkTerminalCount(n); err != nil {
		return nil, err
	}
	cacheKey := graph.CanonicalKey(base.G)
	p.mu.Lock()
	if cached, ok := p.homCache[cacheKey]; ok {
		p.mu.Unlock()
		return cached, nil
	}
	p.mu.Unlock()
	pv := p.h.NumVertices()
	set := map[string]hsubConfig{}
	status := make([]uint8, pv)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == pv {
			var realized uint16
			for _, e := range p.h.Edges() {
				su, sv := status[e.U], status[e.V]
				if su == statusUnmapped || sv == statusUnmapped {
					continue
				}
				if base.G.HasEdge(int(su-1), int(sv-1)) {
					realized |= edgeBit(e.ID)
				}
			}
			cfg := p.canonicalConfig(hsubConfig{status: append([]uint8(nil), status...), realized: realized})
			set[cfg.encode()] = cfg
			return
		}
		status[i] = statusUnmapped
		rec(i + 1)
		for r := 0; r < n; r++ {
			if used[r] {
				continue
			}
			used[r] = true
			status[i] = uint8(r + 1)
			rec(i + 1)
			used[r] = false
		}
		status[i] = statusUnmapped
	}
	rec(0)
	out := []regular.BaseClass{{Class: p.newClass(set)}}
	p.mu.Lock()
	p.homCache[cacheKey] = out
	p.mu.Unlock()
	return out, nil
}

// Compose joins configuration sets: statuses combine per H-vertex (an
// H-vertex mapped in both operands must sit on a glued terminal pair),
// realized masks union, forgotten terminals become internal, and invalid
// configurations are pruned.
func (p *HSubgraph) Compose(f wterm.Gluing, c1, c2 regular.Class) (regular.Class, bool, error) {
	a, ok := c1.(hsubClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrBadClass, c1)
	}
	b, ok := c2.(hsubClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrBadClass, c2)
	}
	if a.found || b.found {
		return hsubClass{p: p.h.NumVertices(), found: true}, true, nil
	}
	cacheKey := f.Key() + "\x00" + a.Key() + "\x00" + b.Key()
	p.mu.Lock()
	if cached, ok := p.composeCache[cacheKey]; ok {
		p.mu.Unlock()
		return cached.class, cached.compatible, nil
	}
	p.mu.Unlock()
	ranks1, ranks2 := mapRanks1(f), mapRanks2(f)
	pv := p.h.NumVertices()
	decode := func(s string) hsubConfig {
		return hsubConfig{status: []uint8(s[:pv]), realized: uint16(s[pv]) | uint16(s[pv+1])<<8}
	}
	// Expand operand 2's canonical representatives through the automorphism
	// group so that quotienting does not lose joins.
	var bExpanded []hsubConfig
	for _, sb := range b.configs {
		bExpanded = append(bExpanded, p.orbit(decode(sb))...)
	}
	out := map[string]hsubConfig{}
	for _, sa := range a.configs {
		ca := decode(sa)
		for _, cb := range bExpanded {
			status := make([]uint8, pv)
			compatible := true
			for v := 0; v < pv; v++ {
				s1, s2 := ca.status[v], cb.status[v]
				switch {
				case s1 == statusUnmapped && s2 == statusUnmapped:
					status[v] = statusUnmapped
				case s1 == statusInternal && s2 == statusUnmapped:
					status[v] = statusInternal
				case s2 == statusInternal && s1 == statusUnmapped:
					status[v] = statusInternal
				case s1 != statusUnmapped && s1 != statusInternal && s2 == statusUnmapped:
					status[v] = mapStatus(ranks1, s1)
				case s2 != statusUnmapped && s2 != statusInternal && s1 == statusUnmapped:
					status[v] = mapStatus(ranks2, s2)
				case s1 != statusUnmapped && s1 != statusInternal && s2 != statusUnmapped && s2 != statusInternal:
					// Mapped in both operands: must be the same glued vertex.
					r1, r2 := ranks1[s1-1], ranks2[s2-1]
					if r1 < 0 || r1 != r2 {
						compatible = false
					} else {
						status[v] = uint8(r1 + 1)
					}
				default:
					// internal in one, mapped in the other: distinct vertices.
					compatible = false
				}
				if !compatible {
					break
				}
			}
			if !compatible {
				continue
			}
			// Injectivity on terminals: two H-vertices cannot land on the
			// same result terminal.
			seen := map[uint8]bool{}
			for _, s := range status {
				if s != statusUnmapped && s != statusInternal {
					if seen[s] {
						compatible = false
						break
					}
					seen[s] = true
				}
			}
			if !compatible {
				continue
			}
			cfg := hsubConfig{status: status, realized: ca.realized | cb.realized}
			if !p.valid(cfg) {
				continue
			}
			cfg = p.canonicalConfig(cfg)
			out[cfg.encode()] = cfg
		}
	}
	result := p.newClass(out)
	p.mu.Lock()
	p.composeCache[cacheKey] = composeResult{class: result, compatible: true}
	p.mu.Unlock()
	return result, true, nil
}

func mapStatus(ranks []int, s uint8) uint8 {
	r := ranks[s-1]
	if r < 0 {
		return statusInternal
	}
	return uint8(r + 1)
}

// Accepting reports whether a complete embedding of H was found (classes
// collapse to an absorbing found-state as soon as one exists).
func (p *HSubgraph) Accepting(c regular.Class) (bool, error) {
	cc, ok := c.(hsubClass)
	if !ok {
		return false, fmt.Errorf("%w: %T", ErrBadClass, c)
	}
	return cc.found, nil
}

// Selection implements regular.Predicate (closed predicate: empty).
func (*HSubgraph) Selection(regular.Class) (regular.Selection, error) {
	return regular.Selection{}, nil
}

// DecodeClass implements regular.Predicate.
func (p *HSubgraph) DecodeClass(data []byte) (regular.Class, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("%w: truncated hsub class", ErrBadClass)
	}
	pv := int(data[0])
	found := data[1] != 0
	count := int(data[2])<<16 | int(data[3])<<8 | int(data[4])
	body := data[5:]
	size := pv + 2
	if len(body) < count*size {
		return nil, fmt.Errorf("%w: truncated hsub configs", ErrBadClass)
	}
	configs := make([]string, count)
	for i := 0; i < count; i++ {
		configs[i] = string(body[i*size : (i+1)*size])
	}
	return hsubClass{p: pv, found: found, configs: configs}, nil
}
