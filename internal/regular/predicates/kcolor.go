package predicates

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/regular"
	"repro/internal/wterm"
)

// KColorability is the closed regular predicate "G is k-colorable". The
// class is the set of proper colorings of the terminals that extend to a
// proper coloring of the graph derived so far — the textbook homomorphism
// class for colorability. Non-3-colorability, the paper's running example,
// is the negation of Decide with k = 3.
type KColorability struct {
	// K is the number of colors (>= 1).
	K int
}

var _ regular.Predicate = KColorability{}

// kcolorClass is a canonical (sorted, deduplicated) set of terminal
// colorings; each coloring assigns colors 0..k-1 to terminal ranks 0..n-1.
type kcolorClass struct {
	n         int
	k         int
	colorings []string // each of length n, sorted
}

func (c kcolorClass) Key() string {
	b := make([]byte, 0, 8+len(c.colorings)*(c.n+1))
	b = append(b, uint8(c.n), uint8(c.k))
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(c.colorings)))
	b = append(b, cnt[:]...)
	for _, col := range c.colorings {
		b = append(b, col...)
	}
	return string(b)
}

func newKColorClass(n, k int, set map[string]struct{}) kcolorClass {
	colorings := make([]string, 0, len(set))
	for c := range set {
		colorings = append(colorings, c)
	}
	sort.Strings(colorings)
	return kcolorClass{n: n, k: k, colorings: colorings}
}

// Name implements regular.Predicate.
func (p KColorability) Name() string { return fmt.Sprintf("%d-colorable", p.K) }

// SetKind implements regular.Predicate.
func (KColorability) SetKind() regular.SetKind { return regular.SetNone }

// HomBase enumerates the proper colorings of the base graph (constraints are
// the owned edges).
func (p KColorability) HomBase(base *wterm.TerminalGraph) ([]regular.BaseClass, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("predicates: KColorability needs K >= 1, got %d", p.K)
	}
	n := base.NumTerminals()
	if err := checkTerminalCount(n); err != nil {
		return nil, err
	}
	set := map[string]struct{}{}
	edges := base.G.Edges()
	coloring := make([]byte, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			set[string(coloring)] = struct{}{}
			return
		}
		for c := 0; c < p.K; c++ {
			coloring[i] = byte(c)
			ok := true
			for _, e := range edges {
				if e.U < i && e.V == i || e.V < i && e.U == i {
					other := e.U
					if other == i {
						other = e.V
					}
					if coloring[other] == byte(c) {
						ok = false
						break
					}
				}
			}
			if ok {
				rec(i + 1)
			}
		}
	}
	rec(0)
	return []regular.BaseClass{{Class: newKColorClass(n, p.K, set)}}, nil
}

// Compose joins the two coloring sets along the glued terminals: a result
// coloring is extendable iff it arises from a pair of extendable operand
// colorings agreeing on every glued pair.
func (p KColorability) Compose(f wterm.Gluing, c1, c2 regular.Class) (regular.Class, bool, error) {
	a, ok := c1.(kcolorClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrBadClass, c1)
	}
	b, ok := c2.(kcolorClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrBadClass, c2)
	}
	shared := f.SharedRows()
	// Bucket operand-2 colorings by their colors at the glued coordinates.
	bucket := map[string][]string{}
	for _, col := range b.colorings {
		key := make([]byte, len(shared))
		for s, r := range shared {
			key[s] = col[f.Rows[r][1]-1]
		}
		bucket[string(key)] = append(bucket[string(key)], col)
	}
	out := map[string]struct{}{}
	result := make([]byte, len(f.Rows))
	for _, colA := range a.colorings {
		key := make([]byte, len(shared))
		for s, r := range shared {
			key[s] = colA[f.Rows[r][0]-1]
		}
		for _, colB := range bucket[string(key)] {
			for r, row := range f.Rows {
				if row[0] != 0 {
					result[r] = colA[row[0]-1]
				} else {
					result[r] = colB[row[1]-1]
				}
			}
			out[string(result)] = struct{}{}
		}
	}
	return newKColorClass(len(f.Rows), p.K, out), true, nil
}

// Accepting reports whether some proper coloring extends, i.e. the set is
// nonempty.
func (KColorability) Accepting(c regular.Class) (bool, error) {
	cc, ok := c.(kcolorClass)
	if !ok {
		return false, fmt.Errorf("%w: %T", ErrBadClass, c)
	}
	return len(cc.colorings) > 0, nil
}

// Selection implements regular.Predicate (closed predicate: empty).
func (KColorability) Selection(regular.Class) (regular.Selection, error) {
	return regular.Selection{}, nil
}

// DecodeClass implements regular.Predicate.
func (KColorability) DecodeClass(data []byte) (regular.Class, error) {
	if len(data) < 6 {
		return nil, fmt.Errorf("%w: truncated coloring class", ErrBadClass)
	}
	n, k := int(data[0]), int(data[1])
	count := int(binary.LittleEndian.Uint32(data[2:6]))
	body := data[6:]
	if len(body) < n*count {
		return nil, fmt.Errorf("%w: truncated coloring set", ErrBadClass)
	}
	colorings := make([]string, count)
	for i := 0; i < count; i++ {
		colorings[i] = string(body[i*n : (i+1)*n])
	}
	return kcolorClass{n: n, k: k, colorings: colorings}, nil
}
