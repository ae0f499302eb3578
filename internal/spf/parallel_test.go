package spf

import (
	"errors"
	"math"
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

// fullRoute is one of the two from-scratch routes over the shared core:
// MultiPlan.Route, which drains each destination straight into Loads at one
// worker, and DeltaRouter.Route, which retains the support lists at every
// worker count.
type fullRoute struct {
	name  string
	core  *routeCore
	route func(w Weights) error
}

// fullRoutes builds both routes over the same instance.
func fullRoutes(g *graph.Graph, tms []*traffic.Matrix) []fullRoute {
	p, dr := NewMultiPlan(g, tms...), NewDeltaRouter(g, tms...)
	return []fullRoute{
		{"MultiPlan", &p.routeCore, func(w Weights) error { return p.Route(w, tms...) }},
		{"DeltaRouter", &dr.routeCore, dr.Route},
	}
}

// requireRoutesEqual requires bitwise-equal loads and trees of two routed
// cores.
func requireRoutesEqual(t *testing.T, got, want *routeCore, format string, args ...any) {
	t.Helper()
	for mi := range want.Loads {
		if !slices.Equal(got.Loads[mi], want.Loads[mi]) {
			t.Fatalf(format+": loads[%d]\ngot  %v\nwant %v", append(args, mi, got.Loads[mi], want.Loads[mi])...)
		}
	}
	for _, dest := range want.Destinations() {
		requireTreeEqual(t, got.Tree(dest), want.Tree(dest), format+": dest %d", append(args, dest)...)
	}
}

// requireSameError requires two routes to fail alike: both or neither, with
// the same message.
func requireSameError(t *testing.T, got, want error, format string, args ...any) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf(format+": error %v, want %v", append(args, got, want)...)
	}
}

// TestParallelRouteBitwiseEqualsSequential is the satellite equivalence
// property: MultiPlan.Route and DeltaRouter.Route at 1, 4 and GOMAXPROCS
// workers produce loads and trees bitwise-equal (==, no tolerance) to the
// one-worker route of the same kind, across random instances and repeated
// warm reroutes.
func TestParallelRouteBitwiseEqualsSequential(t *testing.T) {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		g, tms := randomInstance(rng, 12+int(seed)*2, 10+int(seed), 2)
		seqs, pars := fullRoutes(g, tms), fullRoutes(g, tms)
		for k := range seqs {
			seq, par := seqs[k], pars[k]
			for _, workers := range counts {
				par.core.SetWorkers(workers)
				for round := 0; round < 4; round++ {
					w := randomWeights(g.NumEdges(), 30, rng)
					if err := seq.route(w); err != nil {
						t.Fatal(err)
					}
					if err := par.route(w); err != nil {
						t.Fatal(err)
					}
					requireRoutesEqual(t, par.core, seq.core, "%s seed %d workers %d round %d", seq.name, seed, workers, round)
				}
			}
		}
	}
}

// TestParallelRouteDeterministicError: when a failure disconnects demand,
// both routes must report the same (first-in-destination-order) error
// verdict at every worker count as at one.
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
	for k, seq := range fullRoutes(g, []*traffic.Matrix{tm}) {
		seqErr := seq.route(w)
		if !errors.Is(seqErr, ErrNoPath) {
			t.Fatalf("%s: sequential route error %v, want ErrNoPath", seq.name, seqErr)
		}
		for _, workers := range []int{2, 4, 8} {
			par := fullRoutes(g, []*traffic.Matrix{tm})[k]
			par.core.SetWorkers(workers)
			requireSameError(t, par.route(w), seqErr, "%s workers=%d", seq.name, workers)
		}
	}
}

// TestParallelRouteMoreWorkersThanDests clamps the pool to the destination
// count without deadlock or divergence, on both routes.
func TestParallelRouteMoreWorkersThanDests(t *testing.T) {
	g := diamond()
	tm := traffic.NewMatrix(4)
	tm.Set(0, 3, 10)
	tms := []*traffic.Matrix{tm}
	seqs, pars := fullRoutes(g, tms), fullRoutes(g, tms)
	w := Uniform(g.NumEdges())
	for k, seq := range seqs {
		par := pars[k]
		par.core.SetWorkers(16)
		if err := seq.route(w); err != nil {
			t.Fatal(err)
		}
		if err := par.route(w); err != nil {
			t.Fatal(err)
		}
		requireRoutesEqual(t, par.core, seq.core, "%s", seq.name)
	}
}

// TestDeltaRouteWorkersBitwiseEqual holds DeltaRouter.Route at 2, 4 and
// GOMAXPROCS workers to its one-worker route, bitwise, on random weights
// with failures — the loads, every tree, the support lists (which the next
// Apply re-aggregates from) and the error, ErrNoPath and ErrDistRange
// included — and requires a sharded router to keep applying bitwise-equal
// to an inline one.
func TestDeltaRouteWorkersBitwiseEqual(t *testing.T) {
	counts := []int{2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	noPath := 0
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 303))
		g, tms := randomInstance(rng, 10+3*int(seed), 8+int(seed), 2)
		m := g.NumEdges()
		one := NewDeltaRouter(g, tms...)
		for _, workers := range counts {
			dr := NewDeltaRouter(g, tms...)
			dr.SetWorkers(workers)
			for round := 0; round < 8; round++ {
				w := randomWeights(m, 30, rng)
				switch round % 4 {
				case 1: // fail a few arcs; some rounds disconnect demand
					for k := rng.IntN(m / 2); k >= 0; k-- {
						w[rng.IntN(m)] = Disabled
					}
				case 3: // past the int32 distance range
					w[rng.IntN(m)] = math.MaxInt32 / 2
				}
				errOne, err := one.Route(w), dr.Route(w)
				requireSameError(t, err, errOne, "seed %d workers %d round %d", seed, workers, round)
				if round%4 == 3 && !errors.Is(err, ErrDistRange) {
					t.Fatalf("seed %d round %d: error %v, want ErrDistRange", seed, round, err)
				}
				if errors.Is(err, ErrNoPath) {
					noPath++
				}
				if err != nil {
					continue
				}
				requireRoutesEqual(t, &dr.routeCore, &one.routeCore, "seed %d workers %d round %d", seed, workers, round)
				for di := range one.dests {
					for mi := range tms {
						if !slices.Equal(dr.sup[di][mi], one.sup[di][mi]) || !slices.Equal(dr.vals[di][mi], one.vals[di][mi]) {
							t.Fatalf("seed %d workers %d round %d: support list of dest %d matrix %d differs", seed, workers, round, one.dests[di], mi)
						}
					}
				}
				w2 := w.Clone()
				a := graph.EdgeID(rng.IntN(m))
				w2[a] = 1 + rng.IntN(30)
				_, errOne = one.Apply(w2, []graph.EdgeID{a})
				_, err = dr.Apply(w2, []graph.EdgeID{a})
				requireSameError(t, err, errOne, "seed %d workers %d round %d apply", seed, workers, round)
				if err == nil {
					requireRoutesEqual(t, &dr.routeCore, &one.routeCore, "seed %d workers %d round %d apply", seed, workers, round)
				}
			}
		}
	}
	if noPath == 0 {
		t.Fatal("no round disconnected demand: the ErrNoPath case went untested")
	}
}
