package traffic

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
)

func testTopology(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := topo.Random(20, 50, 500, rand.New(rand.NewPCG(77, 77)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestModelRegistryHasAllModels(t *testing.T) {
	want := []string{"gravity", "hotspot", "random", "sink-local", "sink-uniform", "uniform"}
	got := Models()
	for _, m := range want {
		found := false
		for _, g := range got {
			if g == m {
				found = true
			}
		}
		if !found {
			t.Errorf("model %q not registered (have %v)", m, got)
		}
	}
	if list := ModelList(); !strings.Contains(list, "hotspot") || !strings.Contains(list, "|") {
		t.Errorf("ModelList() = %q", list)
	}
}

// TestEveryModelHoldsFraction pins the defining invariant of all HP models:
// total volume satisfies f = etaH / (etaH + etaL) for the resolved f.
func TestEveryModelHoldsFraction(t *testing.T) {
	g := testTopology(t)
	const etaL = 1234.5
	for _, name := range Models() {
		m, err := GenerateHighPriority(name, g, etaL, Params{F: 0.25}, rand.New(rand.NewPCG(5, 5)))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		etaH := m.Total()
		if got := etaH / (etaH + etaL); math.Abs(got-0.25) > 1e-9 {
			t.Errorf("%s: fraction = %g, want 0.25", name, got)
		}
	}
}

func TestEveryModelDeterministic(t *testing.T) {
	g := testTopology(t)
	for _, name := range Models() {
		a, err := GenerateHighPriority(name, g, 1000, Params{}, rand.New(rand.NewPCG(9, 9)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := GenerateHighPriority(name, g, 1000, Params{}, rand.New(rand.NewPCG(9, 9)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for s := 0; s < g.NumNodes(); s++ {
			for d := 0; d < g.NumNodes(); d++ {
				if a.At(graph.NodeID(s), graph.NodeID(d)) != b.At(graph.NodeID(s), graph.NodeID(d)) {
					t.Fatalf("%s: same seed, different demand at (%d,%d)", name, s, d)
				}
			}
		}
	}
}

func TestResolveModelUnknownListsRegistry(t *testing.T) {
	_, _, err := ResolveModel("flood", Params{})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, m := range []string{"random", "hotspot", "gravity", "uniform", "sink-local"} {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("error %q does not enumerate model %q", err, m)
		}
	}
}

func TestModelValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		model string
		p     Params
	}{
		{"f too high", "random", Params{F: 1.2}},
		{"f NaN", "random", Params{F: math.NaN()}},
		{"k NaN", "uniform", Params{K: math.NaN()}},
		{"hotspot fraction NaN", "hotspot", Params{HotspotFraction: math.NaN()}},
		{"hotspot boost NaN", "hotspot", Params{HotspotBoost: math.NaN()}},
		{"k too high", "uniform", Params{K: 2}},
		{"negative sinks", "sink-uniform", Params{Sinks: -1}},
		{"hotspot fraction high", "hotspot", Params{HotspotFraction: 1.5}},
		{"hotspot boost low", "hotspot", Params{HotspotBoost: 0.5}},
	}
	for _, tc := range cases {
		if _, _, err := ResolveModel(tc.model, tc.p); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestUniformModelEqualVolumes(t *testing.T) {
	g := testTopology(t)
	m, err := GenerateHighPriority("uniform", g, 1000, Params{}, rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	var first float64
	for _, d := range m.Demands() {
		if first == 0 {
			first = d.Volume
		}
		if math.Abs(d.Volume-first) > 1e-12 {
			t.Fatalf("uniform model volumes differ: %g vs %g", d.Volume, first)
		}
	}
	n := g.NumNodes()
	want := int(float64(n*(n-1))*0.10 + 0.5)
	if m.NumPairs() != want {
		t.Fatalf("pairs = %d, want %d", m.NumPairs(), want)
	}
}

func TestHotspotModelIsBimodal(t *testing.T) {
	g := testTopology(t)
	m, err := GenerateHighPriority("hotspot", g, 1000, Params{K: 0.5}, rand.New(rand.NewPCG(6, 6)))
	if err != nil {
		t.Fatal(err)
	}
	// Demands must take exactly two distinct volumes, ratio = boost (8).
	volumes := map[float64]int{}
	for _, d := range m.Demands() {
		volumes[d.Volume]++
	}
	if len(volumes) != 2 {
		t.Fatalf("hotspot volumes take %d levels, want 2", len(volumes))
	}
	var lo, hi float64 = math.Inf(1), 0
	for v := range volumes {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.Abs(hi/lo-8) > 1e-9 {
		t.Fatalf("hotspot boost ratio = %g, want 8", hi/lo)
	}
}

func TestHotspotConcentratesOnHotspots(t *testing.T) {
	g := testTopology(t)
	n := g.NumNodes()
	m, err := GenerateHighPriority("hotspot", g, 1000, Params{}, rand.New(rand.NewPCG(8, 8)))
	if err != nil {
		t.Fatal(err)
	}
	// Per-node terminated volume (in+out); the top 10% of nodes must carry
	// a clear majority of total volume at default k=0.1 (hot pairs fill the
	// budget first).
	vol := make([]float64, n)
	total := 0.0
	for _, d := range m.Demands() {
		vol[d.Src] += d.Volume
		vol[d.Dst] += d.Volume
		total += 2 * d.Volume
	}
	sortDesc(vol)
	numHot := n / 10
	if numHot < 1 {
		numHot = 1
	}
	top := 0.0
	for _, v := range vol[:numHot+1] {
		top += v
	}
	if top/total < 0.5 {
		t.Fatalf("top nodes carry only %.0f%% of volume", 100*top/total)
	}
}

func TestGravityModelWeightsByCapacity(t *testing.T) {
	// Star-ish topology with one fat node: demand must concentrate on it.
	g := graph.New(5)
	g.AddLink(0, 1, 1000, 1)
	g.AddLink(0, 2, 1000, 1)
	g.AddLink(1, 2, 10, 1)
	g.AddLink(2, 3, 10, 1)
	g.AddLink(3, 4, 10, 1)
	g.AddLink(4, 1, 10, 1)
	m, err := GenerateHighPriority("gravity", g, 1000, Params{K: 0.2}, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range m.Demands() {
		if d.Src != 0 && d.Dst != 0 {
			t.Fatalf("low-capacity pair (%d,%d) selected before fat-node pairs", d.Src, d.Dst)
		}
	}
}

func TestGravityModelConsumesNoRandomness(t *testing.T) {
	g := testTopology(t)
	rng := rand.New(rand.NewPCG(3, 3))
	before := rng.Uint64()
	rng = rand.New(rand.NewPCG(3, 3))
	if _, err := GenerateHighPriority("gravity", g, 1000, Params{}, rng); err != nil {
		t.Fatal(err)
	}
	if got := rng.Uint64(); got != before {
		t.Fatal("gravity model consumed rng draws; it must be topology-deterministic")
	}
}

func sortDesc(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
