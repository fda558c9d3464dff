package predicates

import (
	"fmt"

	"repro/internal/regular"
	"repro/internal/wterm"
)

// IndependentSet is the regular predicate φ(S) = "S is an independent set"
// with a free vertex-set variable. Its homomorphism class is simply the
// selection restricted to the terminals: under the edge-owned grammar every
// edge is checked exactly once (at the base graph that owns it), so no
// further state is needed.
type IndependentSet struct{}

var _ regular.Predicate = IndependentSet{}

// indsetClass is (terminal count, selected-terminal mask).
type indsetClass struct {
	n    uint8
	mask uint64
}

func (c indsetClass) Key() string {
	var b [9]byte
	return string(putU64(putU8(b[:0], c.n), c.mask))
}

// Name implements regular.Predicate.
func (IndependentSet) Name() string { return "independent-set" }

// SetKind implements regular.Predicate.
func (IndependentSet) SetKind() regular.SetKind { return regular.SetVertex }

// HomBase enumerates selections of the base terminals that do not violate
// independence on the owned edges.
func (IndependentSet) HomBase(base *wterm.TerminalGraph) ([]regular.BaseClass, error) {
	n := base.NumTerminals()
	if err := checkTerminalCount(n); err != nil {
		return nil, err
	}
	// Collect the independent masks first, so that the class list is
	// allocated once at its final size.
	var masks []uint64
	edges := base.G.Edges()
	err := enumerateMasks(n, func(mask uint64) error {
		for _, e := range edges {
			// Terminals are exactly the local vertices in rank order for base
			// graphs produced by wterm.BaseFromBag.
			if mask&(1<<uint(e.U)) != 0 && mask&(1<<uint(e.V)) != 0 {
				return nil // adjacent pair selected: not independent
			}
		}
		masks = append(masks, mask)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]regular.BaseClass, len(masks))
	for i, mask := range masks {
		out[i] = regular.BaseClass{
			Class: indsetClass{n: uint8(n), mask: mask},
			Sel:   regular.Selection{VertexMask: mask},
		}
	}
	return out, nil
}

// Compose implements ⊙_f: selections must agree on glued terminals; gluing
// introduces no edges, so the result is always independent.
func (IndependentSet) Compose(f wterm.Gluing, c1, c2 regular.Class) (regular.Class, bool, error) {
	a, ok := c1.(indsetClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrBadClass, c1)
	}
	b, ok := c2.(indsetClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrBadClass, c2)
	}
	mask, compatible := resultMask(f, a.mask, b.mask)
	if !compatible {
		return nil, false, nil
	}
	return indsetClass{n: uint8(len(f.Rows)), mask: mask}, true, nil
}

// Accepting implements regular.Predicate: every reachable class is a valid
// independent set.
func (IndependentSet) Accepting(regular.Class) (bool, error) { return true, nil }

// Selection implements regular.Predicate.
func (IndependentSet) Selection(c regular.Class) (regular.Selection, error) {
	cc, ok := c.(indsetClass)
	if !ok {
		return regular.Selection{}, fmt.Errorf("%w: %T", ErrBadClass, c)
	}
	return regular.Selection{VertexMask: cc.mask}, nil
}

// DecodeClass implements regular.Predicate.
func (IndependentSet) DecodeClass(data []byte) (regular.Class, error) {
	n, rest, err := getU8(data)
	if err != nil {
		return nil, err
	}
	mask, _, err := getU64(rest)
	if err != nil {
		return nil, err
	}
	return indsetClass{n: n, mask: mask}, nil
}
