package spf

import (
	"math/rand/v2"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// Allocation-regression tests: the SPF hot path must be allocation-free in
// steady state. Each case warms the buffers once, then asserts zero allocs
// per run — the property that keeps full-route evaluation GC-silent inside
// search and sweep inner loops.

func allocInstance(t *testing.T) (*graph.Graph, Weights, *traffic.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 21))
	g, err := topo.Random(40, 100, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, randomWeights(g.NumEdges(), 30, rng), traffic.Gravity(40, rng)
}

func TestComputerTreeZeroSteadyStateAllocs(t *testing.T) {
	g, w, _ := allocInstance(t)
	c := NewComputer(g)
	var tr Tree
	c.Tree(0, w, &tr) // warm
	if allocs := testing.AllocsPerRun(50, func() {
		c.Tree(0, w, &tr)
	}); allocs != 0 {
		t.Fatalf("Computer.Tree allocates %.1f objects per warm run, want 0", allocs)
	}
	// The heap fallback must be zero-alloc too.
	c.SetForceHeap(true)
	c.Tree(0, w, &tr)
	if allocs := testing.AllocsPerRun(50, func() {
		c.Tree(0, w, &tr)
	}); allocs != 0 {
		t.Fatalf("Computer.Tree (heap fallback) allocates %.1f objects per warm run, want 0", allocs)
	}
}

func TestAddLoadsZeroSteadyStateAllocs(t *testing.T) {
	g, w, tm := allocInstance(t)
	c := NewComputer(g)
	var tr Tree
	c.Tree(0, w, &tr)
	demand := tm.DemandsTo(0, nil)
	loads := make([]float64, g.NumEdges())
	if err := c.AddLoads(&tr, demand, loads); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := c.AddLoads(&tr, demand, loads); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AddLoads allocates %.1f objects per warm run, want 0", allocs)
	}
}

// routeAllocs is the warm allocation count of route, averaged the way
// AllocsPerRun does it (total mallocs integer-divided by runs). Above one
// worker the runtime itself may allocate: spawning a goroutine takes a
// descriptor from the spawning P's free list, and allocates one when that
// list and the global one are empty — which happens when the last route's
// workers exited on other Ps. A long warm-up fills the free lists, and many
// runs average those rare allocations below one per run, while any
// allocation of the route's own (at least one per run) still fails the pin.
func routeAllocs(t *testing.T, workers int, route func() error) float64 {
	t.Helper()
	warm, runs := 1, 20
	if workers > 1 {
		warm, runs = 200, 200
	}
	for i := 0; i < warm; i++ {
		if err := route(); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(runs, func() {
		if err := route(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMultiPlanRouteZeroSteadyStateAllocs pins the warm sequential route and
// the warm sharded one, whose worker closures, support lists and (LoadRoute)
// worker trees are reused.
func TestMultiPlanRouteZeroSteadyStateAllocs(t *testing.T) {
	g, w, tm := allocInstance(t)
	rng := rand.New(rand.NewPCG(9, 9))
	tm2 := traffic.Gravity(g.NumNodes(), rng)
	for _, workers := range []int{1, 4} {
		p := NewMultiPlan(g, tm, tm2)
		p.SetWorkers(workers)
		if allocs := routeAllocs(t, workers, func() error { return p.Route(w, tm, tm2) }); allocs != 0 {
			t.Fatalf("MultiPlan.Route at %d workers allocates %.1f objects per warm run, want 0", workers, allocs)
		}
		lr := NewLoadRoute(g, tm2)
		lr.SetWorkers(workers)
		if allocs := routeAllocs(t, workers, func() error { return lr.Route(w, tm2) }); allocs != 0 {
			t.Fatalf("LoadRoute.Route at %d workers allocates %.1f objects per warm run, want 0", workers, allocs)
		}
	}
}

// TestDeltaRouteZeroSteadyStateAllocs pins the warm from-scratch
// DeltaRouter.Route, inline and sharded: its support lists are refilled in
// place.
func TestDeltaRouteZeroSteadyStateAllocs(t *testing.T) {
	g, w, tm := allocInstance(t)
	for _, workers := range []int{1, 4} {
		dr := NewDeltaRouter(g, tm)
		dr.SetWorkers(workers)
		if allocs := routeAllocs(t, workers, func() error { return dr.Route(w) }); allocs != 0 {
			t.Fatalf("DeltaRouter.Route at %d workers allocates %.1f objects per warm run, want 0", workers, allocs)
		}
	}
}

func TestDeltaApplyZeroSteadyStateAllocs(t *testing.T) {
	g, w, tm := allocInstance(t)
	dr := NewDeltaRouter(g, tm)
	if err := dr.Route(w); err != nil {
		t.Fatal(err)
	}
	w2 := w.Clone()
	changed := []graph.EdgeID{5}
	// Warm both directions of the single-arc toggle so supports, dirty lists
	// and the sampled-metrics path have all grown to steady state.
	for i := 0; i < 2*metricsSampleRate; i++ {
		w2[5] = 3 + (i & 1)
		if _, err := dr.Apply(w2, changed); err != nil {
			t.Fatal(err)
		}
	}
	// The instrumented incremental path — counters, sampled histograms and
	// all — must stay allocation-free.
	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		w2[5] = 3 + (i & 1)
		i++
		if _, err := dr.Apply(w2, changed); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DeltaRouter.Apply allocates %.1f objects per warm run, want 0", allocs)
	}
}

func TestCheckpointRevertZeroSteadyStateAllocs(t *testing.T) {
	g, w, tm := allocInstance(t)
	dr := NewDeltaRouter(g, tm)
	if err := dr.Route(w); err != nil {
		t.Fatal(err)
	}
	w2 := w.Clone()
	w2[7] = Disabled
	changed := []graph.EdgeID{7}
	cycle := func() {
		if err := dr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := dr.Apply(w2, changed); err != nil {
			t.Fatal(err)
		}
		dr.Revert()
	}
	for i := 0; i < 2*metricsSampleRate; i++ {
		cycle() // warm the checkpoint pre-image buffers
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("Checkpoint/Apply/Revert allocates %.1f objects per warm run, want 0", allocs)
	}
}

// TestTreeUpdateZeroSteadyStateAllocs toggles one arc between a lowered
// weight and Disabled, with a second arc moving the other way in the same
// transition, so every warm run exercises classification, both seedings, the
// heap, the Order merge and the flat-DAG double buffer.
func TestTreeUpdateZeroSteadyStateAllocs(t *testing.T) {
	g, w, _ := allocInstance(t)
	c := NewComputer(g)
	w1, w2 := w.Clone(), w.Clone()
	w1[3], w1[8] = 1, Disabled
	w2[3], w2[8] = Disabled, 1
	a, b := []graph.EdgeID{3}, []graph.EdgeID{8}
	var tr Tree
	c.Tree(0, w1, &tr)
	toggle := func() {
		c.TreeUpdate(w2, &tr, a, b) // raise 3, repair 8
		c.TreeUpdate(w1, &tr, b, a) // lower 3, fail 8
	}
	toggle() // warm both directions
	toggle()
	if allocs := testing.AllocsPerRun(50, toggle); allocs != 0 {
		t.Fatalf("TreeUpdate toggle allocates %.1f objects per warm run, want 0", allocs)
	}
	var want Tree
	c.Tree(0, w1, &want)
	requireTreeEqual(t, &tr, &want, "tree drifted over the toggles")
}

// TestScaleRouteZeroSteadyStateAllocs pins the compact-layout acceptance
// property at full scale: a warm sequential MultiPlan.Route over each scale
// instance — up to a 100k-node hierarchical ISP with 16 sink-limited gravity
// destinations — performs zero allocations: the int32 tree arenas and support
// buffers never regrow.
func TestScaleRouteZeroSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("10k- and 100k-node instances; skipped with -short")
	}
	for _, s := range scaleInstances {
		g, w, tm := s.build(t)
		p := NewMultiPlan(g, tm)
		if err := p.Route(w, tm); err != nil { // warm
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(2, func() {
			if err := p.Route(w, tm); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: warm Route allocates %.1f objects per run, want 0", s.name, allocs)
		}
	}
}
