// Optimization: a weighted field-sensor network solves two of the paper's
// headline optimization problems — maximum-weight independent set (a set of
// sensors that can transmit simultaneously without interference) and a
// minimum-weight spanning tree (a cheap backbone) — with the top-down phase
// of Theorem 6.1 informing every node whether it (or one of its links) is in
// the optimal solution.
package main

import (
	"fmt"
	"log"
	"strings"

	dmc "repro"
	"repro/internal/graph/gen"
)

func main() {
	// A random bounded-treedepth radio network: 18 sensors, treedepth <= 3,
	// battery levels as vertex weights, link costs as edge weights.
	g, _ := gen.BoundedTreedepth(18, 3, 0.4, 2024)
	gen.AssignRandomWeights(g, 50, 2025)
	fmt.Printf("network: %d sensors, %d links\n\n", g.NumVertices(), g.NumEdges())

	// Maximum-weight independent set: which sensors transmit this slot?
	res, err := dmc.Optimize(g, dmc.IndependentSet(), dmc.Options{D: 3, Maximize: true})
	if err != nil {
		log.Fatal(err)
	}
	if res.TdExceeded || !res.Found {
		log.Fatalf("unexpected: %+v", res)
	}
	var senders []string
	res.Selected.ForEach(func(v int) {
		senders = append(senders, fmt.Sprintf("s%d(battery %d)", v, g.VertexWeight(v)))
	})
	fmt.Printf("transmission slot (max-weight independent set, weight %d, %d rounds):\n  %s\n\n",
		res.Weight, res.Stats.Rounds, strings.Join(senders, ", "))

	// Every selected pair must be non-adjacent — each node knows its own
	// membership, so this is locally checkable.
	for _, e := range g.Edges() {
		if res.Selected.Contains(e.U) && res.Selected.Contains(e.V) {
			log.Fatalf("interference: %d and %d both selected", e.U, e.V)
		}
	}

	// Minimum spanning tree: the cheapest backbone, as an MSO optimization
	// problem over edge sets (the paper's minφ with φ = "S is a spanning
	// tree").
	mst, err := dmc.Optimize(g, dmc.SpanningTree(), dmc.Options{D: 3, Maximize: false})
	if err != nil {
		log.Fatal(err)
	}
	if !mst.Found {
		log.Fatal("no spanning tree (network disconnected?)")
	}
	fmt.Printf("backbone (minimum spanning tree, cost %d, %d rounds):\n", mst.Weight, mst.Stats.Rounds)
	mst.Selected.ForEach(func(id int) {
		e := g.Edge(id)
		fmt.Printf("  link s%d - s%d (cost %d)\n", e.U, e.V, g.EdgeWeight(id))
	})

	// Counting: how many optimal-structure alternatives exist?
	count, err := dmc.Count(g, dmc.Triangles(), dmc.Options{D: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntriangles in the interference graph: %d (%d rounds)\n", count.Count, count.Stats.Rounds)
}
