package regular_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/regular"
	"repro/internal/regular/predicates"
	"repro/internal/wterm"
)

// foldFixture builds a six-terminal path base and an identity gluing so the
// fold benchmarks exercise a |C|² compose loop of realistic size, comparing
// the uncached map folds against the interned dense Fold.
type foldFixture struct {
	pred  regular.Predicate
	base  *wterm.TerminalGraph
	glue  wterm.Gluing
	set   regular.ClassSet
	opt   regular.OptTable
	count regular.CountTable
}

func newFoldFixture(b *testing.B) *foldFixture {
	b.Helper()
	g := graph.New(6)
	for v := 0; v+1 < 6; v++ {
		g.MustAddEdge(v, v+1)
		g.SetVertexWeight(v, int64(v+1))
	}
	g.SetVertexWeight(5, 6)
	bag := []int{0, 1, 2, 3, 4, 5}
	base, err := wterm.BaseFromBag(g, bag, 5)
	if err != nil {
		b.Fatal(err)
	}
	glue, err := wterm.GluingFromBags(bag, bag, bag)
	if err != nil {
		b.Fatal(err)
	}
	fx := &foldFixture{pred: predicates.IndependentSet{}, base: base, glue: glue}
	if fx.set, err = regular.BaseClassSet(fx.pred, base); err != nil {
		b.Fatal(err)
	}
	if fx.opt, err = regular.BaseOptTable(fx.pred, base, 5, true); err != nil {
		b.Fatal(err)
	}
	if fx.count, err = regular.BaseCountTable(fx.pred, base); err != nil {
		b.Fatal(err)
	}
	return fx
}

// benchDense times the dense Fold of the fixture's base table with itself
// under s.
func benchDense(b *testing.B, fx *foldFixture, s regular.Semiring) {
	c := regular.NewCached(fx.pred)
	g := c.InternGluing(fx.glue)
	t, err := c.Base(s, fx.base, 5, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Fold(s, g, t, t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFoldDecide(b *testing.B) {
	fx := newFoldFixture(b)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := regular.FoldDecide(fx.pred, fx.glue, fx.set, fx.set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) { benchDense(b, fx, regular.Exists) })
}

func BenchmarkFoldOpt(b *testing.B) {
	fx := newFoldFixture(b)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := regular.FoldOpt(fx.pred, fx.glue, fx.opt, fx.opt, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) { benchDense(b, fx, regular.MaxPlus) })
}

func BenchmarkFoldCount(b *testing.B) {
	fx := newFoldFixture(b)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := regular.FoldCount(fx.pred, fx.glue, fx.count, fx.count); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) { benchDense(b, fx, regular.Count) })
}
