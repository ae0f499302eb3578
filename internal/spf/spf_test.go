package spf

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// line builds 0 -> 1 -> 2 -> 3 (bidirectional).
func line() *graph.Graph {
	g := graph.New(4)
	g.AddLink(0, 1, 100, 1)
	g.AddLink(1, 2, 100, 2)
	g.AddLink(2, 3, 100, 3)
	return g
}

// diamond builds s=0, a=1, b=2, t=3 with equal-cost paths 0-1-3 and 0-2-3.
func diamond() *graph.Graph {
	g := graph.New(4)
	g.AddLink(0, 1, 100, 1)
	g.AddLink(0, 2, 100, 1)
	g.AddLink(1, 3, 100, 1)
	g.AddLink(2, 3, 100, 1)
	return g
}

func TestUniformWeights(t *testing.T) {
	w := Uniform(5)
	if len(w) != 5 {
		t.Fatalf("len = %d", len(w))
	}
	for _, x := range w {
		if x != 1 {
			t.Fatalf("weight = %d, want 1", x)
		}
	}
	c := w.Clone()
	c[0] = 9
	if w[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestWeightsValidate(t *testing.T) {
	g := line()
	if err := Uniform(g.NumEdges()).Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := Uniform(3).Validate(g); err == nil {
		t.Fatal("wrong length accepted")
	}
	w := Uniform(g.NumEdges())
	w[2] = 0
	if err := w.Validate(g); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestTreeLineDistances(t *testing.T) {
	g := line()
	c := NewComputer(g)
	var tr Tree
	c.Tree(3, Uniform(g.NumEdges()), &tr)
	want := []int32{3, 2, 1, 0}
	for u, d := range tr.Dist {
		if d != want[u] {
			t.Fatalf("Dist[%d] = %d, want %d", u, d, want[u])
		}
	}
	hops := tr.NextHops(g, 0)
	if len(hops) != 1 || hops[0] != 1 {
		t.Fatalf("NextHops(0) = %v, want [1]", hops)
	}
	if tr.NextLen(3) != 0 {
		t.Fatalf("destination has next hops: %v", tr.Next(3))
	}
}

func TestTreeRespectsWeights(t *testing.T) {
	g := diamond()
	w := Uniform(g.NumEdges())
	// Make path through node 1 expensive: arc 0->1 gets weight 5.
	id, _ := g.ArcBetween(0, 1)
	w[id] = 5
	c := NewComputer(g)
	var tr Tree
	c.Tree(3, w, &tr)
	hops := tr.NextHops(g, 0)
	if len(hops) != 1 || hops[0] != 2 {
		t.Fatalf("NextHops(0) = %v, want [2]", hops)
	}
	if tr.Dist[0] != 2 {
		t.Fatalf("Dist[0] = %d, want 2", tr.Dist[0])
	}
}

func TestECMPEvenSplit(t *testing.T) {
	g := diamond()
	tm := traffic.NewMatrix(4)
	tm.Set(0, 3, 10)
	loads, err := Loads(g, Uniform(g.NumEdges()), tm)
	if err != nil {
		t.Fatal(err)
	}
	a01, _ := g.ArcBetween(0, 1)
	a02, _ := g.ArcBetween(0, 2)
	a13, _ := g.ArcBetween(1, 3)
	a23, _ := g.ArcBetween(2, 3)
	for _, tc := range []struct {
		id   graph.EdgeID
		want float64
	}{{a01, 5}, {a02, 5}, {a13, 5}, {a23, 5}} {
		if loads[tc.id] != tc.want {
			t.Fatalf("load[%d] = %g, want %g", tc.id, loads[tc.id], tc.want)
		}
	}
	// Reverse arcs carry nothing.
	a10, _ := g.ArcBetween(1, 0)
	if loads[a10] != 0 {
		t.Fatalf("reverse arc carries %g", loads[a10])
	}
}

func TestECMPDownstreamSplit(t *testing.T) {
	// 0 -> {1,2} -> 3 -> 4 : flows merge at 3 then continue on one arc.
	g := graph.New(5)
	g.AddLink(0, 1, 1, 0)
	g.AddLink(0, 2, 1, 0)
	g.AddLink(1, 3, 1, 0)
	g.AddLink(2, 3, 1, 0)
	g.AddLink(3, 4, 1, 0)
	tm := traffic.NewMatrix(5)
	tm.Set(0, 4, 8)
	loads, err := Loads(g, Uniform(g.NumEdges()), tm)
	if err != nil {
		t.Fatal(err)
	}
	a34, _ := g.ArcBetween(3, 4)
	if loads[a34] != 8 {
		t.Fatalf("merged load = %g, want 8", loads[a34])
	}
	a13, _ := g.ArcBetween(1, 3)
	if loads[a13] != 4 {
		t.Fatalf("split load = %g, want 4", loads[a13])
	}
}

func TestLoadsMultipleSources(t *testing.T) {
	g := line()
	tm := traffic.NewMatrix(4)
	tm.Set(0, 3, 2)
	tm.Set(1, 3, 3)
	tm.Set(2, 3, 5)
	loads, err := Loads(g, Uniform(g.NumEdges()), tm)
	if err != nil {
		t.Fatal(err)
	}
	a23, _ := g.ArcBetween(2, 3)
	if loads[a23] != 10 {
		t.Fatalf("last hop load = %g, want 10", loads[a23])
	}
	a01, _ := g.ArcBetween(0, 1)
	if loads[a01] != 2 {
		t.Fatalf("first hop load = %g, want 2", loads[a01])
	}
}

func TestUnreachableDemandErrors(t *testing.T) {
	g := graph.New(3)
	g.AddArc(0, 1, 1, 0) // one-way; node 2 isolated
	tm := traffic.NewMatrix(3)
	tm.Set(2, 1, 5)
	if _, err := Loads(g, Uniform(g.NumEdges()), tm); err == nil {
		t.Fatal("demand from unreachable node accepted")
	}
}

func TestDelaysLine(t *testing.T) {
	g := line()
	c := NewComputer(g)
	var tr Tree
	c.Tree(3, Uniform(g.NumEdges()), &tr)
	arcDelay := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		arcDelay[e.ID] = e.Delay
	}
	xi := tr.Delays(g, arcDelay, nil)
	if xi[3] != 0 {
		t.Fatalf("xi[dest] = %g", xi[3])
	}
	if xi[2] != 3 || xi[1] != 5 || xi[0] != 6 {
		t.Fatalf("xi = %v, want [6 5 3 0]", xi[:4])
	}
}

func TestDelaysECMPAverage(t *testing.T) {
	g := diamond()
	// Path via 1 has total delay 2+3=5; via 2 has 4+7=11; expected 8.
	arcDelay := make([]float64, g.NumEdges())
	set := func(u, v graph.NodeID, d float64) {
		id, ok := g.ArcBetween(u, v)
		if !ok {
			t.Fatalf("no arc %d->%d", u, v)
		}
		arcDelay[id] = d
	}
	set(0, 1, 2)
	set(1, 3, 3)
	set(0, 2, 4)
	set(2, 3, 7)
	c := NewComputer(g)
	var tr Tree
	c.Tree(3, Uniform(g.NumEdges()), &tr)
	xi := tr.Delays(g, arcDelay, nil)
	if xi[0] != 8 {
		t.Fatalf("xi[0] = %g, want 8 (average of 5 and 11)", xi[0])
	}
}

func TestDelaysUnreachableIsInf(t *testing.T) {
	g := graph.New(3)
	g.AddArc(0, 1, 1, 0)
	c := NewComputer(g)
	var tr Tree
	c.Tree(1, Uniform(g.NumEdges()), &tr)
	xi := tr.Delays(g, make([]float64, g.NumEdges()), nil)
	if !math.IsInf(xi[2], 1) {
		t.Fatalf("xi[unreachable] = %g, want +Inf", xi[2])
	}
	if tr.Reaches(2) {
		t.Fatal("Reaches(2) = true for isolated node")
	}
}

func TestPlanReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g, err := topo.Random(20, 50, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.Gravity(20, rng)
	p := NewPlan(g, tm)
	w1 := randomWeights(g.NumEdges(), 30, rng)
	w2 := randomWeights(g.NumEdges(), 30, rng)
	if err := p.Route(w1, tm); err != nil {
		t.Fatal(err)
	}
	if err := p.Route(w2, tm); err != nil {
		t.Fatal(err)
	}
	reused := append([]float64(nil), p.Loads...)
	fresh, err := Loads(g, w2, tm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if math.Abs(fresh[i]-reused[i]) > 1e-9 {
			t.Fatalf("arc %d: reused %g vs fresh %g", i, reused[i], fresh[i])
		}
	}
}

// TestMultiPlanReusableAfterNoPath guards the invariant the support-sized
// fold rests on: the staging buffer is all-zero between destinations, also
// when a sequential Route stops at a disconnected one. Cutting node x off
// from every in-arc fails the route at destination x, after the earlier
// destinations have been folded; the next Route on the same plan must equal
// a fresh plan's bitwise.
func TestMultiPlanReusableAfterNoPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 29))
	n := 24
	g, err := topo.Random(n, 60, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	tm, tm2 := traffic.Gravity(n, rng), traffic.Gravity(n, rng)
	good := randomWeights(g.NumEdges(), 30, rng)
	fresh := NewMultiPlan(g, tm, tm2)
	if err := fresh.Route(good, tm, tm2); err != nil {
		t.Fatal(err)
	}
	p := NewMultiPlan(g, tm, tm2)
	for _, x := range []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)} {
		if err := p.Route(good.WithFailedArcs(g.In(x)...), tm, tm2); !errors.Is(err, ErrNoPath) {
			t.Fatalf("node %d cut off: Route error %v, want ErrNoPath", x, err)
		}
		if err := p.Route(good, tm, tm2); err != nil {
			t.Fatal(err)
		}
		for mi := range p.Loads {
			for a, v := range p.Loads[mi] {
				if v != fresh.Loads[mi][a] {
					t.Fatalf("after failing at node %d: matrix %d arc %d load %v, fresh plan %v", x, mi, a, v, fresh.Loads[mi][a])
				}
			}
		}
	}
}

func TestPlanPairDelay(t *testing.T) {
	g := line()
	tm := traffic.NewMatrix(4)
	tm.Set(0, 3, 1)
	p := NewPlan(g, tm)
	if err := p.Route(Uniform(g.NumEdges()), tm); err != nil {
		t.Fatal(err)
	}
	arcDelay := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		arcDelay[e.ID] = e.Delay
	}
	if d := p.DelaysTo(3, arcDelay)[0]; d != 6 {
		t.Fatalf("DelaysTo(3)[0] = %g, want 6", d)
	}
	if tr := p.Tree(1); tr != nil {
		t.Fatal("Tree(inactive dest) != nil")
	}
}

// TestFlowConservation checks, on random graphs with random weights and
// demands, that (a) total demand arrives at each destination and (b) flow is
// conserved at every intermediate node.
func TestFlowConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		n := 5 + rng.IntN(15)
		links := n + rng.IntN(2*n)
		if max := n * (n - 1) / 2; links > max {
			links = max
		}
		g, err := topo.Random(n, links, 100, rng)
		if err != nil {
			return true // invalid configuration, skip
		}
		w := randomWeights(g.NumEdges(), 30, rng)
		dest := graph.NodeID(rng.IntN(n))
		demand := make([]float64, n)
		total := 0.0
		for u := range demand {
			if graph.NodeID(u) == dest {
				continue
			}
			demand[u] = rng.Float64() * 10
			total += demand[u]
		}
		c := NewComputer(g)
		var tr Tree
		c.Tree(dest, w, &tr)
		loads := make([]float64, g.NumEdges())
		if err := c.AddLoads(&tr, demand, loads); err != nil {
			return false
		}
		// (a) inflow at dest == total demand.
		inflow := 0.0
		for _, id := range g.In(dest) {
			inflow += loads[id]
		}
		if math.Abs(inflow-total) > 1e-6 {
			return false
		}
		// (b) conservation at intermediate nodes: in + demand == out.
		for u := 0; u < n; u++ {
			if graph.NodeID(u) == dest {
				continue
			}
			in, out := 0.0, 0.0
			for _, id := range g.In(graph.NodeID(u)) {
				in += loads[id]
			}
			for _, id := range g.Out(graph.NodeID(u)) {
				out += loads[id]
			}
			if math.Abs(in+demand[u]-out) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTotalLoadMatchesExpectedHops: summing per-arc loads equals summing
// demand times expected hop count (Delays with unit arc delay), because both
// count expected arc traversals.
func TestTotalLoadMatchesExpectedHops(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		n := 6 + rng.IntN(10)
		g, err := topo.Random(n, n+rng.IntN(n), 100, rng)
		if err != nil {
			return true
		}
		w := randomWeights(g.NumEdges(), 10, rng)
		dest := graph.NodeID(rng.IntN(n))
		demand := make([]float64, n)
		for u := range demand {
			if graph.NodeID(u) != dest {
				demand[u] = 1 + rng.Float64()*5
			}
		}
		c := NewComputer(g)
		var tr Tree
		c.Tree(dest, w, &tr)
		loads := make([]float64, g.NumEdges())
		if err := c.AddLoads(&tr, demand, loads); err != nil {
			return false
		}
		totalLoad := 0.0
		for _, l := range loads {
			totalLoad += l
		}
		ones := make([]float64, g.NumEdges())
		for i := range ones {
			ones[i] = 1
		}
		hops := tr.Delays(g, ones, nil)
		expected := 0.0
		for u, d := range demand {
			expected += d * hops[u]
		}
		return math.Abs(totalLoad-expected) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDijkstraAgainstBellmanFord validates distances on random graphs
// against a reference Bellman-Ford.
func TestDijkstraAgainstBellmanFord(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		n := 4 + rng.IntN(12)
		g, err := topo.Random(n, n+rng.IntN(n), 1, rng)
		if err != nil {
			return true
		}
		w := randomWeights(g.NumEdges(), 30, rng)
		dest := graph.NodeID(rng.IntN(n))
		c := NewComputer(g)
		var tr Tree
		c.Tree(dest, w, &tr)
		ref := bellmanFord(g, w, dest)
		for u := range ref {
			if ref[u] != tr.Dist[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func bellmanFord(g *graph.Graph, w Weights, dest graph.NodeID) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = unreachable
	}
	dist[dest] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range g.Edges() {
			if dist[e.To] == unreachable || w[e.ID] == Disabled {
				continue
			}
			if alt := dist[e.To] + int32(w[e.ID]); alt < dist[e.From] {
				dist[e.From] = alt
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDisabledArcReroutes(t *testing.T) {
	g := diamond()
	w := Uniform(g.NumEdges())
	a01, _ := g.ArcBetween(0, 1)
	w = w.WithFailedArcs(a01)
	tm := traffic.NewMatrix(4)
	tm.Set(0, 3, 10)
	loads, err := Loads(g, w, tm)
	if err != nil {
		t.Fatal(err)
	}
	a02, _ := g.ArcBetween(0, 2)
	if loads[a01] != 0 {
		t.Fatalf("failed arc carries %g", loads[a01])
	}
	if loads[a02] != 10 {
		t.Fatalf("surviving branch carries %g, want 10", loads[a02])
	}
}

func TestDisabledArcsDisconnect(t *testing.T) {
	g := diamond()
	w := Uniform(g.NumEdges())
	a01, _ := g.ArcBetween(0, 1)
	a02, _ := g.ArcBetween(0, 2)
	w = w.WithFailedArcs(a01, a02)
	tm := traffic.NewMatrix(4)
	tm.Set(0, 3, 10)
	if _, err := Loads(g, w, tm); err == nil {
		t.Fatal("disconnected demand routed")
	}
	// The tree itself must mark node 0 unreachable.
	c := NewComputer(g)
	var tr Tree
	c.Tree(3, w, &tr)
	if tr.Reaches(0) {
		t.Fatal("node 0 still reaches destination through failed arcs")
	}
}

func TestWithFailedArcsDoesNotMutate(t *testing.T) {
	w := Uniform(4)
	f := w.WithFailedArcs(2)
	if w[2] != 1 {
		t.Fatal("WithFailedArcs mutated the receiver")
	}
	if f[2] != Disabled {
		t.Fatalf("failed arc weight = %d", f[2])
	}
	// Disabled weights still pass validation (they are a legal sentinel).
	g := diamond()
	wf := Uniform(g.NumEdges()).WithFailedArcs(0)
	if err := wf.Validate(g); err != nil {
		t.Fatalf("Validate rejected disabled arc: %v", err)
	}
}

func TestMultiPlanRoutesBothMatrices(t *testing.T) {
	g := diamond()
	tmA := traffic.NewMatrix(4)
	tmA.Set(0, 3, 8)
	tmB := traffic.NewMatrix(4)
	tmB.Set(1, 3, 4)
	mp := NewMultiPlan(g, tmA, tmB)
	if err := mp.Route(Uniform(g.NumEdges()), tmA, tmB); err != nil {
		t.Fatal(err)
	}
	a13, _ := g.ArcBetween(1, 3)
	if mp.Loads[0][a13] != 4 { // half of tmA's 8 via node 1
		t.Fatalf("matrix A load = %g, want 4", mp.Loads[0][a13])
	}
	if mp.Loads[1][a13] != 4 { // all of tmB's 4
		t.Fatalf("matrix B load = %g, want 4", mp.Loads[1][a13])
	}
	if mp.Tree(3) == nil || mp.Tree(2) != nil {
		t.Fatal("MultiPlan destination set wrong")
	}
	if len(mp.Destinations()) != 1 {
		t.Fatalf("destinations = %v", mp.Destinations())
	}
}

func randomWeights(n, max int, rng *rand.Rand) Weights {
	w := make(Weights, n)
	for i := range w {
		w[i] = 1 + rng.IntN(max)
	}
	return w
}
