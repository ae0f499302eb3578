package graph

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	g := New(3)
	g.AddLink(0, 1, 1, 1)
	g.AddLink(1, 2, 1, 1)
	g.AddLink(0, 2, 1, 1)
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(4)
	if got := g.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 0 {
		t.Fatalf("NumEdges = %d, want 0", got)
	}
	if g.StronglyConnected() {
		t.Fatal("4 isolated nodes reported strongly connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddLinkCreatesBothArcs(t *testing.T) {
	g := New(2)
	uv, vu := g.AddLink(0, 1, 500, 2.5)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	e1, e2 := g.Edge(uv), g.Edge(vu)
	if e1.From != 0 || e1.To != 1 || e2.From != 1 || e2.To != 0 {
		t.Fatalf("arc endpoints wrong: %+v %+v", e1, e2)
	}
	if e1.Capacity != 500 || e2.Capacity != 500 {
		t.Fatalf("capacities wrong: %g %g", e1.Capacity, e2.Capacity)
	}
	if e1.Delay != 2.5 || e2.Delay != 2.5 {
		t.Fatalf("delays wrong: %g %g", e1.Delay, e2.Delay)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddArc(1,1) did not panic")
		}
	}()
	New(2).AddArc(1, 1, 1, 0)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddArc with bad node did not panic")
		}
	}()
	New(2).AddArc(0, 5, 1, 0)
}

func TestAdjacency(t *testing.T) {
	g := triangle(t)
	if d := len(g.Out(0)); d != 2 {
		t.Fatalf("len(Out(0)) = %d, want 2", d)
	}
	if d := len(g.In(2)); d != 2 {
		t.Fatalf("len(In(2)) = %d, want 2", d)
	}
	for _, id := range g.Out(1) {
		if g.Edge(id).From != 1 {
			t.Fatalf("Out(1) contains arc from %d", g.Edge(id).From)
		}
	}
	if d := g.UndirectedDegree(0); d != 2 {
		t.Fatalf("UndirectedDegree(0) = %d, want 2", d)
	}
}

func TestArcBetween(t *testing.T) {
	g := triangle(t)
	id, ok := g.ArcBetween(0, 2)
	if !ok {
		t.Fatal("ArcBetween(0,2) not found")
	}
	if e := g.Edge(id); e.From != 0 || e.To != 2 {
		t.Fatalf("ArcBetween returned %+v", e)
	}
	if _, ok := g.ArcBetween(2, 2); ok {
		t.Fatal("ArcBetween(2,2) found a self loop")
	}
	rev, ok := g.Reverse(id)
	if !ok {
		t.Fatal("Reverse not found")
	}
	if e := g.Edge(rev); e.From != 2 || e.To != 0 {
		t.Fatalf("Reverse returned %+v", e)
	}
	if !g.HasLink(0, 1) {
		t.Fatal("HasLink(0,1) = false")
	}
}

func TestStronglyConnected(t *testing.T) {
	g := triangle(t)
	if !g.StronglyConnected() {
		t.Fatal("triangle not strongly connected")
	}
	if err := g.RequireStronglyConnected(); err != nil {
		t.Fatalf("RequireStronglyConnected: %v", err)
	}
	// One-way chain is not strongly connected.
	h := New(3)
	h.AddArc(0, 1, 1, 0)
	h.AddArc(1, 2, 1, 0)
	if h.StronglyConnected() {
		t.Fatal("one-way chain reported strongly connected")
	}
	if err := h.RequireStronglyConnected(); err != ErrDisconnected {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

func TestDirectedCycleIsStronglyConnected(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddArc(NodeID(i), NodeID((i+1)%4), 1, 0)
	}
	if !g.StronglyConnected() {
		t.Fatal("directed 4-cycle should be strongly connected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := triangle(t)
	c := g.Clone()
	c.AddLink(0, 1, 9, 9)
	c.SetName(0, "changed")
	if g.NumEdges() == c.NumEdges() {
		t.Fatal("AddLink on clone changed original edge count")
	}
	if g.Name(0) == "changed" {
		t.Fatal("SetName on clone changed original")
	}
	c2 := g.Clone()
	c2.SetDelay(0, 99)
	if g.Edge(0).Delay == 99 {
		t.Fatal("SetDelay on clone changed original")
	}
}

func TestNames(t *testing.T) {
	g := New(2)
	if g.Name(1) != "n1" {
		t.Fatalf("default name = %q, want n1", g.Name(1))
	}
	g.SetName(1, "nyc")
	id, ok := g.NodeByName("nyc")
	if !ok || id != 1 {
		t.Fatalf("NodeByName = (%d,%v), want (1,true)", id, ok)
	}
	if _, ok := g.NodeByName("missing"); ok {
		t.Fatal("NodeByName found missing name")
	}
}

func TestValidateCatchesBadCapacity(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, 1, 0)
	g.SetCapacity(0, -1)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted negative capacity")
	}
	g.SetCapacity(0, 1)
	g.SetDelay(0, -5)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted negative delay")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := triangle(t)
	g.SetName(0, "a")
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %v vs %v", h, g)
	}
	if h.Name(0) != "a" {
		t.Fatalf("round trip lost name: %q", h.Name(0))
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(EdgeID(i)) != h.Edge(EdgeID(i)) {
			t.Fatalf("arc %d mismatch: %+v vs %+v", i, g.Edge(EdgeID(i)), h.Edge(EdgeID(i)))
		}
	}
}

func TestUnmarshalRejectsBadArc(t *testing.T) {
	for _, bad := range []string{
		`{"nodes":["a","b"],"arcs":[{"from":0,"to":5,"capacity":1,"delay":0}]}`,
		`{"nodes":["a","b"],"arcs":[{"from":1,"to":1,"capacity":1,"delay":0}]}`,
		`{"nodes":["a","b"],"arcs":[{"from":0,"to":1,"capacity":-2,"delay":0}]}`,
		`not json`,
	} {
		var g Graph
		if err := g.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("UnmarshalJSON accepted %q", bad)
		}
	}
}

// TestRandomGraphInvariants builds random graphs and checks Validate,
// adjacency consistency and clone equality as properties.
func TestRandomGraphInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 2 + rng.IntN(20)
		g := New(n)
		links := 1 + rng.IntN(3*n)
		for i := 0; i < links; i++ {
			u := NodeID(rng.IntN(n))
			v := NodeID(rng.IntN(n))
			if u == v {
				continue
			}
			g.AddLink(u, v, 1+rng.Float64()*100, rng.Float64()*15)
		}
		if err := g.Validate(); err != nil {
			return false
		}
		// Arc count must equal the sum of out-degrees and in-degrees.
		outSum, inSum := 0, 0
		for u := 0; u < n; u++ {
			outSum += len(g.Out(NodeID(u)))
			inSum += len(g.In(NodeID(u)))
		}
		if outSum != g.NumEdges() || inSum != g.NumEdges() {
			return false
		}
		c := g.Clone()
		if c.NumEdges() != g.NumEdges() || c.NumNodes() != g.NumNodes() {
			return false
		}
		for i := 0; i < g.NumEdges(); i++ {
			if c.Edge(EdgeID(i)) != g.Edge(EdgeID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	g := triangle(t)
	if got, want := g.String(), "graph{3 nodes, 6 arcs}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
