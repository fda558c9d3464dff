package predicates

import (
	"fmt"

	"repro/internal/regular"
	"repro/internal/wterm"
)

// VertexCover is the regular predicate φ(S) = "S covers every edge" with a
// free vertex-set variable. Coverage is checked at the base graph owning
// each edge, so the class is just the selection on the terminals.
type VertexCover struct{}

var _ regular.Predicate = VertexCover{}

type vcClass struct {
	n    uint8
	mask uint64
}

func (c vcClass) Key() string {
	var b [9]byte
	return string(putU64(putU8(b[:0], c.n), c.mask))
}

// Name implements regular.Predicate.
func (VertexCover) Name() string { return "vertex-cover" }

// SetKind implements regular.Predicate.
func (VertexCover) SetKind() regular.SetKind { return regular.SetVertex }

// HomBase enumerates terminal selections that cover every owned edge.
func (VertexCover) HomBase(base *wterm.TerminalGraph) ([]regular.BaseClass, error) {
	n := base.NumTerminals()
	if err := checkTerminalCount(n); err != nil {
		return nil, err
	}
	var out []regular.BaseClass
	err := enumerateMasks(n, func(mask uint64) error {
		for _, e := range base.G.Edges() {
			if mask&(1<<uint(e.U)) == 0 && mask&(1<<uint(e.V)) == 0 {
				return nil // uncovered owned edge
			}
		}
		out = append(out, regular.BaseClass{
			Class: vcClass{n: uint8(n), mask: mask},
			Sel:   regular.Selection{VertexMask: mask},
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Compose implements ⊙_f.
func (VertexCover) Compose(f wterm.Gluing, c1, c2 regular.Class) (regular.Class, bool, error) {
	a, ok := c1.(vcClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrBadClass, c1)
	}
	b, ok := c2.(vcClass)
	if !ok {
		return nil, false, fmt.Errorf("%w: %T", ErrBadClass, c2)
	}
	mask, compatible := resultMask(f, a.mask, b.mask)
	if !compatible {
		return nil, false, nil
	}
	return vcClass{n: uint8(len(f.Rows)), mask: mask}, true, nil
}

// Accepting implements regular.Predicate.
func (VertexCover) Accepting(regular.Class) (bool, error) { return true, nil }

// Selection implements regular.Predicate.
func (VertexCover) Selection(c regular.Class) (regular.Selection, error) {
	cc, ok := c.(vcClass)
	if !ok {
		return regular.Selection{}, fmt.Errorf("%w: %T", ErrBadClass, c)
	}
	return regular.Selection{VertexMask: cc.mask}, nil
}

// DecodeClass implements regular.Predicate.
func (VertexCover) DecodeClass(data []byte) (regular.Class, error) {
	n, rest, err := getU8(data)
	if err != nil {
		return nil, err
	}
	mask, _, err := getU64(rest)
	if err != nil {
		return nil, err
	}
	return vcClass{n: n, mask: mask}, nil
}
