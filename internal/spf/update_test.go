package spf

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
)

// mixedStep draws one transition from cur: 1-5 arcs, each raised, lowered,
// failed (Disabled) or — when it is down — repaired, and returns the new
// setting with the changed arcs split the way TreeUpdate takes them.
func mixedStep(rng *rand.Rand, cur Weights) (w Weights, raised, lowered []graph.EdgeID) {
	w = cur.Clone()
	for k := 1 + rng.IntN(5); k > 0; k-- {
		a := graph.EdgeID(rng.IntN(len(cur)))
		if w[a] != cur[a] {
			continue // already moved this step
		}
		switch {
		case cur[a] == Disabled:
			w[a] = 1 + rng.IntN(8) // repair
		case rng.IntN(5) == 0:
			w[a] = Disabled
		case rng.IntN(2) == 0 && cur[a] > 1:
			w[a] = 1 + rng.IntN(cur[a]-1)
		default:
			w[a] = cur[a] + 1 + rng.IntN(5)
		}
		if w[a] > cur[a] {
			raised = append(raised, a)
		} else {
			lowered = append(lowered, a)
		}
	}
	return w, raised, lowered
}

// requireTreeEqual asserts got is bitwise the tree want: distances, canonical
// order and the flat ECMP DAG.
func requireTreeEqual(t *testing.T, got, want *Tree, format string, args ...any) {
	t.Helper()
	switch {
	case !slices.Equal(got.Dist, want.Dist):
		t.Errorf("Dist\ngot  %v\nwant %v", got.Dist, want.Dist)
	case !slices.Equal(got.Order, want.Order):
		t.Errorf("Order\ngot  %v\nwant %v", got.Order, want.Order)
	case !slices.Equal(got.NextStart, want.NextStart):
		t.Errorf("NextStart\ngot  %v\nwant %v", got.NextStart, want.NextStart)
	case !slices.Equal(got.NextArcs, want.NextArcs):
		t.Errorf("NextArcs\ngot  %v\nwant %v", got.NextArcs, want.NextArcs)
	default:
		return
	}
	t.Fatalf(format, args...)
}

// bothQueues runs f once with the reference trees built by the bucket queue
// and once by the forced heap; the update itself always runs on the heap.
func bothQueues(t *testing.T, f func(t *testing.T, forceHeap bool)) {
	t.Run("bucket", func(t *testing.T) { f(t, false) })
	t.Run("heap", func(t *testing.T) { f(t, true) })
}

// TestTreeUpdateDirect drives random mixed transitions — raises, lowers,
// failures and repairs of already-failed arcs — from a fresh full tree and
// asserts the update is bitwise-equal to a from-scratch recomputation.
func TestTreeUpdateDirect(t *testing.T) {
	bothQueues(t, func(t *testing.T, forceHeap bool) {
		for seed := uint64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewPCG(seed, 9))
			g, err := topo.Random(8, 12, 100, rng)
			if err != nil {
				t.Fatal(err)
			}
			w := make(Weights, g.NumEdges())
			for i := range w {
				w[i] = 1 + rng.IntN(6)
				if rng.IntN(8) == 0 {
					w[i] = Disabled
				}
			}
			c := NewComputer(g)
			c.SetForceHeap(forceHeap)
			for dest := 0; dest < g.NumNodes(); dest++ {
				var got, want Tree
				c.Tree(graph.NodeID(dest), w, &got)
				w2, raised, lowered := mixedStep(rng, w)
				c.TreeUpdate(w2, &got, raised, lowered)
				c.Tree(graph.NodeID(dest), w2, &want)
				requireTreeEqual(t, &got, &want, "seed %d dest %d: raised %v lowered %v", seed, dest, raised, lowered)
			}
		}
	})
}

// TestTreeUpdateChained applies sequences of mixed transitions through the
// update without ever refreshing from a full tree, so a classification or
// seeding error would compound and surface.
func TestTreeUpdateChained(t *testing.T) {
	bothQueues(t, func(t *testing.T, forceHeap bool) {
		for seed := uint64(0); seed < 100; seed++ {
			rng := rand.New(rand.NewPCG(seed, 10))
			g, err := topo.Random(8, 12, 100, rng)
			if err != nil {
				t.Fatal(err)
			}
			w := make(Weights, g.NumEdges())
			for i := range w {
				w[i] = 1 + rng.IntN(6)
			}
			c := NewComputer(g)
			c.SetForceHeap(forceHeap)
			for dest := 0; dest < g.NumNodes(); dest++ {
				var got, want Tree
				c.Tree(graph.NodeID(dest), w, &got)
				cur := w
				for step := 0; step < 20; step++ {
					w2, raised, lowered := mixedStep(rng, cur)
					c.TreeUpdate(w2, &got, raised, lowered)
					c.Tree(graph.NodeID(dest), w2, &want)
					requireTreeEqual(t, &got, &want, "seed %d dest %d step %d: raised %v lowered %v", seed, dest, step, raised, lowered)
					cur = w2
				}
			}
		}
	})
}

// TestTreeUpdateIsland hangs a three-node island off a ring by one link that
// starts failed: the island is unreachable from the ring and the ring from
// the island. Repairing the link must settle nodes the old tree did not
// hold at all; failing it again must drop them, with weight noise on the
// ring mixed into the same transitions.
func TestTreeUpdateIsland(t *testing.T) {
	bothQueues(t, func(t *testing.T, forceHeap bool) {
		const ring, n = 6, 9
		g := graph.New(n)
		for u := 0; u < ring; u++ {
			g.AddLink(graph.NodeID(u), graph.NodeID((u+1)%ring), 100, 1)
		}
		g.AddLink(6, 7, 100, 1)
		g.AddLink(7, 8, 100, 1)
		g.AddLink(8, 6, 100, 1)
		in, out := g.AddLink(2, 6, 100, 1) // the bridge
		rng := rand.New(rand.NewPCG(11, 11))
		w := make(Weights, g.NumEdges())
		for i := range w {
			w[i] = 1 + rng.IntN(6)
		}
		w[in], w[out] = Disabled, Disabled
		c := NewComputer(g)
		c.SetForceHeap(forceHeap)
		for dest := 0; dest < n; dest++ {
			var got, want Tree
			c.Tree(graph.NodeID(dest), w, &got)
			if reach := len(got.Order); reach != ring && reach != n-ring {
				t.Fatalf("dest %d: %d nodes reachable with the bridge down", dest, reach)
			}
			cur := w
			for step := 0; step < 40; step++ {
				w2 := cur.Clone()
				var raised, lowered []graph.EdgeID
				noise := graph.EdgeID(rng.IntN(2 * ring)) // a ring arc, re-weighted
				if w2[noise] = 1 + rng.IntN(6); w2[noise] > cur[noise] {
					raised = append(raised, noise)
				} else if w2[noise] < cur[noise] {
					lowered = append(lowered, noise)
				}
				if cur[in] == Disabled {
					w2[in], w2[out] = 1+rng.IntN(6), 1+rng.IntN(6)
					lowered = append(lowered, in, out)
				} else {
					w2[in], w2[out] = Disabled, Disabled
					raised = append(raised, in, out)
				}
				c.TreeUpdate(w2, &got, raised, lowered)
				c.Tree(graph.NodeID(dest), w2, &want)
				requireTreeEqual(t, &got, &want, "dest %d step %d: raised %v lowered %v", dest, step, raised, lowered)
				if up := w2[in] != Disabled; up != (len(got.Order) == n) {
					t.Fatalf("dest %d step %d: bridge up=%v but %d of %d nodes reachable", dest, step, up, len(got.Order), n)
				}
				cur = w2
			}
		}
	})
}
