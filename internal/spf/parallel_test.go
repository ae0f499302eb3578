package spf

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// TestBucketHeapTreesBitwiseEqual asserts the core queue-equivalence
// property: the bucket-queue and indexed-heap Dijkstras produce
// bitwise-identical trees (distances, canonical order, flat ECMP DAG) on
// randomized graphs with randomized weights, including disabled arcs.
func TestBucketHeapTreesBitwiseEqual(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 41))
		n := 6 + rng.IntN(20)
		g, err := topo.Random(n, n+rng.IntN(2*n), 100, rng)
		if err != nil {
			continue
		}
		w := make(Weights, g.NumEdges())
		for i := range w {
			if rng.IntN(12) == 0 {
				w[i] = Disabled
			} else {
				w[i] = 1 + rng.IntN(30)
			}
		}
		bucket := NewComputer(g)
		heap := NewComputer(g)
		heap.SetForceHeap(true)
		var bt, ht Tree
		for dest := 0; dest < g.NumNodes(); dest++ {
			bucket.Tree(graph.NodeID(dest), w, &bt)
			heap.Tree(graph.NodeID(dest), w, &ht)
			requireTreeEqual(t, &bt, &ht, "seed %d dest %d: bucket vs heap", seed, dest)
		}
	}
}

// TestWideWeightsFallBackToHeap drives weights beyond maxBucketWeight, the
// automatic heap-fallback trigger, and checks distances against the same
// instance computed with forced-heap (trivially the same engine) and with a
// scaled-down bucket-eligible instance (same shortest paths, scaled
// distances) to make sure the fallback routes correctly.
func TestWideWeightsFallBackToHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 99))
	g, err := topo.Random(12, 24, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	scale := maxBucketWeight // small weights scaled by this exceed the limit
	small := make(Weights, g.NumEdges())
	wide := make(Weights, g.NumEdges())
	for i := range small {
		small[i] = 1 + rng.IntN(8)
		wide[i] = small[i] * scale
	}
	c := NewComputer(g)
	var ts, tw Tree
	for dest := 0; dest < g.NumNodes(); dest++ {
		c.Tree(graph.NodeID(dest), small, &ts)
		c.Tree(graph.NodeID(dest), wide, &tw)
		for u := range ts.Dist {
			if ts.Dist[u]*int32(scale) != tw.Dist[u] {
				t.Fatalf("dest %d: scaled Dist[%d] = %d, want %d", dest, u, tw.Dist[u], ts.Dist[u]*int32(scale))
			}
		}
		for u := 0; u < g.NumNodes(); u++ {
			if !slices.Equal(ts.Next(graph.NodeID(u)), tw.Next(graph.NodeID(u))) {
				t.Fatalf("dest %d: scaled DAG differs at node %d", dest, u)
			}
		}
	}
}

// TestParallelRouteBitwiseEqualsSequential is the satellite equivalence
// property: MultiPlan.Route at 1, 4 and GOMAXPROCS workers produces loads
// bitwise-equal (==, no tolerance) to the sequential path, across random
// instances and repeated warm reroutes.
func TestParallelRouteBitwiseEqualsSequential(t *testing.T) {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		g, tms := randomInstance(rng, 12+int(seed)*2, 10+int(seed), 2)
		seq := NewMultiPlan(g, tms...)
		par := NewMultiPlan(g, tms...)
		for _, workers := range counts {
			par.SetWorkers(workers)
			for round := 0; round < 4; round++ {
				w := randomWeights(g.NumEdges(), 30, rng)
				if err := seq.Route(w, tms...); err != nil {
					t.Fatal(err)
				}
				if err := par.Route(w, tms...); err != nil {
					t.Fatal(err)
				}
				for mi := range seq.Loads {
					for a := range seq.Loads[mi] {
						if seq.Loads[mi][a] != par.Loads[mi][a] {
							t.Fatalf("seed %d workers %d round %d: load[%d][%d] parallel %v != sequential %v",
								seed, workers, round, mi, a, par.Loads[mi][a], seq.Loads[mi][a])
						}
					}
				}
				for _, dest := range seq.Destinations() {
					requireTreeEqual(t, par.Tree(dest), seq.Tree(dest), "seed %d dest %d: parallel vs sequential", seed, dest)
				}
			}
		}
	}
}

// TestParallelRouteDeterministicError: when a failure disconnects demand,
// the parallel path must report the same (first-in-destination-order) error
// verdict as the sequential path, at every worker count.
func TestParallelRouteDeterministicError(t *testing.T) {
	g := graph.New(4)
	g.AddLink(0, 1, 100, 1)
	g.AddLink(1, 2, 100, 1)
	g.AddLink(2, 3, 100, 1)
	tm := traffic.NewMatrix(4)
	tm.Set(0, 2, 5)
	tm.Set(0, 3, 5)
	w := Uniform(g.NumEdges())
	a01, _ := g.ArcBetween(0, 1)
	a10, _ := g.ArcBetween(1, 0)
	w = w.WithFailedArcs(a01, a10) // node 0 cut off from everything
	seq := NewMultiPlan(g, tm)
	seqErr := seq.Route(w, tm)
	if seqErr == nil {
		t.Fatal("sequential route accepted disconnected demand")
	}
	for _, workers := range []int{2, 4, 8} {
		par := NewMultiPlan(g, tm)
		par.SetWorkers(workers)
		parErr := par.Route(w, tm)
		if parErr == nil {
			t.Fatalf("workers=%d: parallel route accepted disconnected demand", workers)
		}
		if parErr.Error() != seqErr.Error() {
			t.Fatalf("workers=%d: error %q != sequential %q", workers, parErr, seqErr)
		}
	}
}

// TestParallelRouteMoreWorkersThanDests clamps the pool to the destination
// count without deadlock or divergence.
func TestParallelRouteMoreWorkersThanDests(t *testing.T) {
	g := diamond()
	tm := traffic.NewMatrix(4)
	tm.Set(0, 3, 10)
	seq := NewMultiPlan(g, tm)
	par := NewMultiPlan(g, tm)
	par.SetWorkers(16)
	w := Uniform(g.NumEdges())
	if err := seq.Route(w, tm); err != nil {
		t.Fatal(err)
	}
	if err := par.Route(w, tm); err != nil {
		t.Fatal(err)
	}
	for a := range seq.Loads[0] {
		if seq.Loads[0][a] != par.Loads[0][a] {
			t.Fatalf("load[%d]: %v != %v", a, par.Loads[0][a], seq.Loads[0][a])
		}
	}
}
