package resilience

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
)

func testTopology(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	g, err := topo.Random(20, 40, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	topo.AssignUniformDelays(g, 1, 10, rng)
	return g
}

func TestLinksCanonical(t *testing.T) {
	g := testTopology(t, 1)
	links := Links(g)
	if len(links) != 40 {
		t.Fatalf("links = %d, want 40", len(links))
	}
	for i, l := range links {
		rev, ok := g.Reverse(l.AB)
		if !ok || rev != l.BA {
			t.Fatalf("link %d: BA %d is not the reverse of AB %d", i, l.BA, l.AB)
		}
		if l.AB > l.BA {
			t.Fatalf("link %d not canonical: AB %d > BA %d", i, l.AB, l.BA)
		}
		if i > 0 && links[i-1].AB >= l.AB {
			t.Fatalf("links not in ascending AB order at %d", i)
		}
	}
}

// TestSizeMatchesEnumerate pins Size to the full enumeration it bounds, for
// every kind, whether or not the model samples, and 0 for an invalid model.
func TestSizeMatchesEnumerate(t *testing.T) {
	g := testTopology(t, 2)
	for _, m := range []Model{
		{},
		{Kind: KindLink, Count: 2, Sample: 5, Seed: 1},
		{Kind: KindNode},
		{Kind: KindSRLG, SRLGs: [][]int{{0, 1}, {2}, {3, 4, 5}}},
	} {
		full := m
		full.Sample = 0
		states, err := Enumerate(g, full)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Size(g); got != len(states) {
			t.Errorf("%s: Size %d, full enumeration %d", m, got, len(states))
		}
	}
	if n := (Model{Kind: "meteor"}).Size(g); n != 0 {
		t.Errorf("invalid model: Size %d, want 0", n)
	}
	isolated := graph.New(3) // node 2 has no arcs, so it is no failure state
	isolated.AddLink(0, 1, 100, 1)
	if n := (Model{Kind: KindNode}).Size(isolated); n != 2 {
		t.Errorf("node model with an isolated node: Size %d, want 2", n)
	}
}

func TestEnumerateCounts(t *testing.T) {
	g := testTopology(t, 2)
	nLinks := len(Links(g))

	single, err := Enumerate(g, Model{})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != nLinks {
		t.Fatalf("single-link states = %d, want %d", len(single), nLinks)
	}
	for _, st := range single {
		if len(st.Arcs) != 2 {
			t.Fatalf("single-link state %q has %d arcs", st.Label, len(st.Arcs))
		}
	}

	dual, err := Enumerate(g, Model{Kind: KindLink, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := nLinks * (nLinks - 1) / 2; len(dual) != want {
		t.Fatalf("dual-link states = %d, want %d", len(dual), want)
	}

	nodes, err := Enumerate(g, Model{Kind: KindNode})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != g.NumNodes() {
		t.Fatalf("node states = %d, want %d", len(nodes), g.NumNodes())
	}
	for _, st := range nodes {
		u, ok := g.NodeByName(st.Label[len("node "):])
		if !ok {
			t.Fatalf("node state label %q names no node", st.Label)
		}
		if want := len(g.Out(u)) + len(g.In(u)); len(st.Arcs) != want {
			t.Fatalf("node %q fails %d arcs, want %d", st.Label, len(st.Arcs), want)
		}
	}

	srlg, err := Enumerate(g, Model{Kind: KindSRLG, SRLGs: [][]int{{0, 1, 2}, {3}, {0, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(srlg) != 3 {
		t.Fatalf("srlg states = %d, want 3", len(srlg))
	}
	if len(srlg[0].Arcs) != 6 || len(srlg[1].Arcs) != 2 {
		t.Fatalf("srlg arc counts = %d/%d, want 6/2", len(srlg[0].Arcs), len(srlg[1].Arcs))
	}
	// Duplicate links within a group are deduplicated.
	if len(srlg[2].Arcs) != 2 {
		t.Fatalf("srlg duplicate group arcs = %d, want 2", len(srlg[2].Arcs))
	}
}

func TestEnumerateRejectsBadModels(t *testing.T) {
	g := testTopology(t, 3)
	bad := []Model{
		{Kind: "meteor"},
		{Kind: KindLink, Count: 3},
		{Kind: KindSRLG},
		{Kind: KindSRLG, SRLGs: [][]int{{}}},
		{Kind: KindSRLG, SRLGs: [][]int{{-1}}},
		{Kind: KindSRLG, SRLGs: [][]int{{9999}}},
		{Sample: -1},
	}
	for _, m := range bad {
		if _, err := Enumerate(g, m); err == nil {
			t.Errorf("model %+v accepted", m)
		}
	}
}

// TestSamplingIsSeededAndUniformOverStates is the fix for the old biased
// capping: a capped sweep must be a seeded, order-preserving uniform sample
// over all states — not a prefix in edge-ID order.
func TestSamplingIsSeededAndUniformOverStates(t *testing.T) {
	g := testTopology(t, 4)
	m := Model{Kind: KindLink, Count: 2, Sample: 15, Seed: 99}
	a, err := Enumerate(g, m)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Enumerate(g, m)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different samples")
	}
	if len(a) != 15 {
		t.Fatalf("sample = %d states, want 15", len(a))
	}
	full, _ := Enumerate(g, Model{Kind: KindLink, Count: 2})
	pos := map[string]int{}
	for i, st := range full {
		pos[st.Label] = i
	}
	last := -1
	prefix := true
	for i, st := range a {
		p, ok := pos[st.Label]
		if !ok {
			t.Fatalf("sampled state %q not in full enumeration", st.Label)
		}
		if p <= last {
			t.Fatal("sample does not preserve enumeration order")
		}
		if p != i {
			prefix = false
		}
		last = p
	}
	if prefix {
		t.Fatal("sample is the enumeration prefix — capping is still biased")
	}
	m.Seed = 100
	c, _ := Enumerate(g, m)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestModelString(t *testing.T) {
	cases := []struct {
		m    Model
		want string
	}{
		{Model{}, "link"},
		{Model{Kind: KindLink, Count: 2}, "dual-link"},
		{Model{Kind: KindNode, Sample: 8}, "node(sample=8)"},
		{Model{Kind: KindSRLG, SRLGs: [][]int{{0}}}, "srlg"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.m, got, c.want)
		}
	}
}
