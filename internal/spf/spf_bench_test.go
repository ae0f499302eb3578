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

// scaleSpec is one of the large routing instances behind README's "Scale"
// figures. Traffic is sink-limited gravity, because a dense n×n matrix would
// dominate — and distort — any measurement of the routing core at these sizes.
type scaleSpec struct {
	name, family string
	nodes, sinks int
	params       topo.Params
}

// Waxman stops at 10k because its generator is O(n²) in the node count.
var scaleInstances = []scaleSpec{
	{"hier10k", "hier", 10_000, 64, topo.Params{Pops: 100, RoutersPerPop: 100}},
	// Alpha is tuned for sparse ISP-like degree (~10) at 10k nodes; the
	// family default (0.25) would produce millions of links.
	{"waxman10k", "waxman", 10_000, 64, topo.Params{Nodes: 10_000, Alpha: 0.002, Beta: 0.6}},
	{"hier100k", "hier", 100_000, 16, topo.Params{Pops: 250, RoutersPerPop: 400}},
}

// build materializes the instance — graph, paper-range [1, 20] weights and
// gravity matrix — seeded from its node count.
func (s scaleSpec) build(tb testing.TB) (*graph.Graph, Weights, *traffic.Matrix) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(uint64(s.nodes), 0x5ca1e))
	g, err := topo.Generate(s.family, s.params, rng)
	if err != nil {
		tb.Fatal(err)
	}
	tm := traffic.GravitySinks(g.NumNodes(), s.sinks, rng)
	return g, randomWeights(g.NumEdges(), 20, rng), tm
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

// BenchmarkRouteWorkers pins the all-destinations full-route cost of
// MultiPlan.Route and DeltaRouter.Route across SPF worker counts;
// workers=1 is each one's sequential baseline, which every other count must
// match bitwise, and delta/workers=1 less plan/workers=1 is what retaining
// the support lists costs.
func BenchmarkRouteWorkers(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, kind := range []string{"plan", "delta"} {
		for _, workers := range counts {
			b.Run(fmt.Sprintf("%s/workers=%d", kind, workers), func(b *testing.B) {
				g, w, tm := benchSetup(b)
				p, dr := NewMultiPlan(g, tm), NewDeltaRouter(g, tm)
				route := func() error { return p.Route(w, tm) }
				p.SetWorkers(workers)
				if kind == "delta" {
					route = func() error { return dr.Route(w) }
					dr.SetWorkers(workers)
				}
				if err := route(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := route(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// heapInuseMB is HeapInuse in MB, after a collection when gc is set.
func heapInuseMB(gc bool) float64 {
	if gc {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// BenchmarkRouteScale times one warm destination tree and the warm full route
// of each scale instance: the route sequentially on all three, with 4
// block-sharded workers on the 10k pair, and through a DeltaRouter on
// hier10k. The route series also report the instance's heap footprint as a
// delta against the heap the sub-benchmark started on: heap_peak_mb right
// after the cold build and first route, before any collection, heap_mb after
// one. The delta series' heap_mb less the sequential series' is what the
// incremental router's retained per-destination state costs.
func BenchmarkRouteScale(b *testing.B) {
	if testing.Short() {
		b.Skip("10k- and 100k-node instances; skipped with -short")
	}
	for _, s := range scaleInstances {
		b.Run(s.name+"/tree", func(b *testing.B) {
			g, w, _ := s.build(b)
			c := NewComputer(g)
			var tr Tree
			c.Tree(0, w, &tr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Tree(0, w, &tr)
			}
		})
		for _, workers := range []int{1, 4} {
			if workers > 1 && s.nodes > 10_000 {
				continue
			}
			b.Run(fmt.Sprintf("%s/workers=%d", s.name, workers), func(b *testing.B) {
				benchScaleRoute(b, func() func() error {
					g, w, tm := s.build(b)
					p := NewMultiPlan(g, tm)
					p.SetWorkers(workers)
					return func() error { return p.Route(w, tm) }
				})
			})
		}
		if s.name == "hier10k" {
			b.Run(s.name+"/delta", func(b *testing.B) {
				benchScaleRoute(b, func() func() error {
					g, w, tm := s.build(b)
					dr := NewDeltaRouter(g, tm)
					return func() error { return dr.Route(w) }
				})
			})
		}
	}
}

// benchScaleRoute times the warm route returned by build, which builds the
// instance and its router, and reports their heap as heap_peak_mb and
// heap_mb (see BenchmarkRouteScale).
func benchScaleRoute(b *testing.B, build func() (route func() error)) {
	base := heapInuseMB(true)
	route := build()
	if err := route(); err != nil {
		b.Fatal(err)
	}
	peak := max(heapInuseMB(false)-base, 0)
	steady := max(heapInuseMB(true)-base, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := route(); err != nil {
			b.Fatal(err)
		}
	}
	// After the loop: ResetTimer clears metrics reported earlier.
	b.ReportMetric(peak, "heap_peak_mb")
	b.ReportMetric(steady, "heap_mb")
}
