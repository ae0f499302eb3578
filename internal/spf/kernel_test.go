package spf

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
)

// withIsland copies g (arc IDs preserved) and adds a three-node component no
// arc connects to the rest.
func withIsland(g *graph.Graph) *graph.Graph {
	n := g.NumNodes()
	h := graph.New(n + 3)
	for _, e := range g.Edges() {
		h.AddArc(e.From, e.To, e.Capacity, e.Delay)
	}
	a, b, c := graph.NodeID(n), graph.NodeID(n+1), graph.NodeID(n+2)
	h.AddLink(a, b, 100, 1)
	h.AddLink(b, c, 100, 1)
	h.AddLink(c, a, 100, 1)
	return h
}

// TestTreeAgainstIndependentOracle checks the tree kernel against
// definitions that share no code with it: Dist against Bellman–Ford, Order
// against a sort of the reachable nodes by (Dist, ID), and every Next run
// against a naive scan of the node's out-arcs. TestBucketHeapTreesBitwiseEqual
// only compares the two queues with each other. Unit weights on hier and ring
// give equal-distance runs far longer than the sort cut-off; random Disabled
// arcs and an island cover unreachable tails and heads.
func TestTreeAgainstIndependentOracle(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
		unit bool
	}
	var cases []instance
	for seed := uint64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 77))
		n := 8 + rng.IntN(40)
		g, err := topo.Random(n, n+rng.IntN(2*n), 100, rng)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{"random", g, seed%3 == 0})
	}
	rng := rand.New(rand.NewPCG(5, 77))
	for _, chords := range []int{0, 3} {
		g, err := topo.Generate("ring", topo.Params{Nodes: 41, Chords: chords}, rng)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{"ring", g, true}, instance{"ring", g, false})
	}
	for _, routers := range []int{6, 25} {
		g, err := topo.Generate("hier", topo.Params{Pops: 5, RoutersPerPop: routers}, rng)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{"hier", g, true})
	}

	for ci, tc := range cases {
		g := withIsland(tc.g)
		n := g.NumNodes()
		for _, disable := range []bool{false, true} {
			w := Uniform(g.NumEdges())
			if !tc.unit {
				w = randomWeights(g.NumEdges(), 30, rng)
			}
			if disable {
				for i := range w {
					if rng.IntN(6) == 0 {
						w[i] = Disabled
					}
				}
			}
			for _, forceHeap := range []bool{false, true} {
				c := NewComputer(g)
				c.SetForceHeap(forceHeap)
				var tr Tree
				for dest := graph.NodeID(0); int(dest) < n; dest++ {
					c.Tree(dest, w, &tr)
					dist := bellmanFord(g, w, dest)
					if !slices.Equal(tr.Dist, dist) {
						t.Fatalf("case %d (%s) heap=%v dest %d: Dist differs from Bellman-Ford", ci, tc.name, forceHeap, dest)
					}
					var order []graph.NodeID
					for u := graph.NodeID(0); int(u) < n; u++ {
						if dist[u] != unreachable {
							order = append(order, u)
						}
					}
					sort.Slice(order, func(i, j int) bool {
						if dist[order[i]] != dist[order[j]] {
							return dist[order[i]] < dist[order[j]]
						}
						return order[i] < order[j]
					})
					if !slices.Equal(tr.Order, order) {
						t.Fatalf("case %d (%s) heap=%v dest %d: Order %v, want %v", ci, tc.name, forceHeap, dest, tr.Order, order)
					}
					total := 0
					for u := graph.NodeID(0); int(u) < n; u++ {
						var next []graph.EdgeID
						for _, id := range g.Out(u) {
							dv := dist[g.Edge(id).To]
							if w[id] != Disabled && dist[u] != unreachable && dv != unreachable &&
								int64(dv)+int64(w[id]) == int64(dist[u]) {
								next = append(next, id)
							}
						}
						if !slices.Equal(tr.Next(u), next) {
							t.Fatalf("case %d (%s) heap=%v dest %d: Next(%d) %v, want %v", ci, tc.name, forceHeap, dest, u, tr.Next(u), next)
						}
						total += len(next)
					}
					if len(tr.NextArcs) != total {
						t.Fatalf("case %d (%s) heap=%v dest %d: %d DAG arcs stored, want %d", ci, tc.name, forceHeap, dest, len(tr.NextArcs), total)
					}
				}
			}
		}
	}
}
