package spf

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/traffic"
)

// TestSubsetRouteBuildsOnlyLoadedTrees routes a MultiPlan over (TH, TL) with
// TH alone, where TL loads a destination TH lacks: the loads and trees are
// bitwise those of a Plan over TH, at one and two workers, and Tree returns
// nil for the TL-only destination even right after a route over both.
func TestSubsetRouteBuildsOnlyLoadedTrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 38))
	g, tms := randomInstance(rng, 16, 12, 1)
	tl := tms[0]
	const lOnly = graph.NodeID(3)
	th := traffic.NewMatrix(g.NumNodes())
	for d := range g.NumNodes() {
		if d != int(lOnly) {
			th.Set(graph.NodeID((d+5)%g.NumNodes()), graph.NodeID(d), 1+rng.Float64())
		}
	}
	tl.Set(0, lOnly, 2)
	for _, workers := range []int{1, 2} {
		p, ref := NewMultiPlan(g, th, tl), NewPlan(g, th)
		p.SetWorkers(workers)
		for round := 0; round < 3; round++ {
			w := randomWeights(g.NumEdges(), 30, rng)
			if err := p.Route(w, th, tl); err != nil {
				t.Fatal(err)
			}
			if p.Tree(lOnly) == nil {
				t.Fatalf("workers %d: a route over both matrices skipped TL's destination %d", workers, lOnly)
			}
			w = randomWeights(g.NumEdges(), 30, rng)
			if err := p.Route(w, th); err != nil {
				t.Fatal(err)
			}
			if err := ref.Route(w, th); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.Loads[0], ref.Loads) {
				t.Fatalf("workers %d round %d: TH-only loads differ from a Plan over TH", workers, round)
			}
			for _, dest := range ref.Destinations() {
				requireTreeEqual(t, p.Tree(dest), ref.Tree(dest), "workers %d round %d dest %d", workers, round, dest)
			}
			if tr := p.Tree(lOnly); tr != nil {
				t.Fatalf("workers %d round %d: Tree(%d) after a TH-only route = %v, want nil", workers, round, lOnly, tr)
			}
		}
	}
}

// TestLoadRouteBitwiseEqualsPlan holds the load-only route to Plan.Route at
// one, two and automatic workers: bitwise-equal loads, and the same first
// ErrNoPath in destination order when failed arcs cut demand off. It keeps
// no tree.
func TestLoadRouteBitwiseEqualsPlan(t *testing.T) {
	noPath := 0
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 39))
		g, tms := randomInstance(rng, 10+3*int(seed), 8+int(seed), 1)
		tm, m := tms[0], g.NumEdges()
		for _, workers := range []int{1, 2, 0} {
			lr, ref := NewLoadRoute(g, tm), NewPlan(g, tm)
			lr.SetWorkers(workers)
			for round := 0; round < 6; round++ {
				w := randomWeights(m, 30, rng)
				if round%2 == 1 {
					for k := rng.IntN(m / 2); k >= 0; k-- {
						w[rng.IntN(m)] = Disabled
					}
				}
				err, want := lr.Route(w, tm), ref.Route(w, tm)
				requireSameError(t, err, want, "seed %d workers %d round %d", seed, workers, round)
				if errors.Is(err, ErrNoPath) {
					noPath++
				}
				if err != nil {
					continue
				}
				if !slices.Equal(lr.Loads[0], ref.Loads) {
					t.Fatalf("seed %d workers %d round %d: loads differ from Plan.Route", seed, workers, round)
				}
				for _, dest := range lr.Destinations() {
					if lr.Tree(dest) != nil {
						t.Fatalf("seed %d: LoadRoute.Tree(%d) is not nil", seed, dest)
					}
				}
			}
		}
	}
	if noPath == 0 {
		t.Fatal("no round disconnected demand: the ErrNoPath case went untested")
	}
}
