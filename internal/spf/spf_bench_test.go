package spf

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// benchSetup builds the standard benchmark instance: a 100-node random
// topology with paper-range weights and a gravity matrix activating every
// destination.
func benchSetup(b *testing.B) (*graph.Graph, Weights, *traffic.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewPCG(3, 3))
	g, err := topo.Random(100, 250, 500, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g, randomWeights(g.NumEdges(), 30, rng), traffic.Gravity(100, rng)
}

// BenchmarkTreeQueue compares the monotone bucket queue (the default)
// against the indexed 4-ary heap (the fallback) on identical
// single-destination SPF computations, over two series: random weights,
// where a distance class is a node or two, and the tie-heavy unit-weight
// 8×25 hier, where one class is most of a tier.
func BenchmarkTreeQueue(b *testing.B) {
	hier, err := topo.Generate("hier", topo.Params{Pops: 8, RoutersPerPop: 25}, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		b.Fatal(err)
	}
	random, randomW, _ := benchSetup(b)
	for _, series := range []struct {
		name string
		g    *graph.Graph
		w    Weights
	}{
		{"", random, randomW},
		{"ties/", hier, Uniform(hier.NumEdges())},
	} {
		for _, mode := range []string{"bucket", "heap"} {
			b.Run(series.name+mode, func(b *testing.B) {
				c := NewComputer(series.g)
				c.SetForceHeap(mode == "heap")
				var tr Tree
				c.Tree(0, series.w, &tr)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Tree(0, series.w, &tr)
				}
			})
		}
	}
}

// BenchmarkMultiPlanRouteWorkers pins the all-destinations full-route cost
// across SPF worker counts; workers=1 is the sequential baseline every
// other count must match bitwise.
func BenchmarkMultiPlanRouteWorkers(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			g, w, tm := benchSetup(b)
			p := NewMultiPlan(g, tm)
			p.SetWorkers(workers)
			if err := p.Route(w, tm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Route(w, tm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
