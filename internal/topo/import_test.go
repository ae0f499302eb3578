package topo

import (
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualtopo/internal/graph"
)

const testGML = `
# tiny Topology-Zoo-style export
graph [
  directed 0
  label "TestNet"
  node [ id 0 label "Alpha" Country "X" ]
  node [ id 1 label "Beta" ]
  node [ id 2 label "Gamma" ]
  node [ id 3 label "Delta" ]
  edge [ source 0 target 1 capacity 1000 delay 4 ]
  edge [ source 1 target 2 ]
  edge [ source 2 target 3 delay 2.5 ]
  edge [ source 3 target 0 ]
  edge [ source 0 target 2 ]
  edge [ source 0 target 2 ]
]
`

func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestImportGML(t *testing.T) {
	path := writeFile(t, "net.gml", testGML)
	g, err := Generate("import", Params{Path: path}, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4", g.NumNodes())
	}
	// 6 edge blocks, one a parallel duplicate -> 5 links = 10 arcs.
	if g.NumEdges() != 10 {
		t.Fatalf("arcs = %d, want 10", g.NumEdges())
	}
	u, ok := g.NodeByName("Alpha")
	if !ok {
		t.Fatal("node Alpha missing")
	}
	v, _ := g.NodeByName("Beta")
	id, ok := g.ArcBetween(u, v)
	if !ok {
		t.Fatal("Alpha-Beta link missing")
	}
	if e := g.Edge(id); e.Capacity != 1000 || e.Delay != 4 {
		t.Fatalf("Alpha-Beta = %+v, want capacity 1000 delay 4", e)
	}
	// Links without a capacity attribute fall back to the default.
	w, _ := g.NodeByName("Gamma")
	id2, _ := g.ArcBetween(v, w)
	if e := g.Edge(id2); e.Capacity != DefaultCapacity {
		t.Fatalf("Beta-Gamma capacity = %g, want default %d", e.Capacity, DefaultCapacity)
	}
}

func TestImportAdjacency(t *testing.T) {
	path := writeFile(t, "net.adj", "a b 100 2\nb c 100 3 # comment\nc a 50\n")
	g, err := Generate("import", Params{Path: path}, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 6 {
		t.Fatalf("shape = %s", g)
	}
	a, _ := g.NodeByName("a")
	b, _ := g.NodeByName("b")
	id, _ := g.ArcBetween(a, b)
	if e := g.Edge(id); e.Capacity != 100 || e.Delay != 2 {
		t.Fatalf("a-b = %+v", e)
	}
}

func TestImportDelayModels(t *testing.T) {
	path := writeFile(t, "net.adj", "a b 100 2\nb c 100 3\nc a 50 4\n")
	kept, err := Generate("import", Params{Path: path}, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if kept.Edge(0).Delay != 2 {
		t.Fatalf("keep model lost file delay: %+v", kept.Edge(0))
	}
	zeroed, err := Generate("import", Params{Path: path, DelayModel: DelayNone},
		rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range zeroed.Edges() {
		if e.Delay != 0 {
			t.Fatalf("none model kept delay: %+v", e)
		}
	}
	redrawn, err := Generate("import", Params{Path: path, DelayModel: DelayUniform, MinDelayMs: 7, MaxDelayMs: 8},
		rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range redrawn.Edges() {
		if e.Delay < 7 || e.Delay > 8 {
			t.Fatalf("uniform redraw out of range: %+v", e)
		}
	}
}

// dupLabelGML repeats a label, as real Topology-Zoo exports do ("None",
// "?"); identity must come from the id, never the label.
const dupLabelGML = `graph [
	  node [ id 0 label "None" ]
	  node [ id 1 label "None" ]
	  node [ id 2 label "Hub" ]
	  edge [ source 0 target 1 ]
	  edge [ source 1 target 2 ]
	  edge [ source 2 target 0 ]
	]`

func TestImportGMLDuplicateLabels(t *testing.T) {
	path := writeFile(t, "dup.gml", dupLabelGML)
	g, err := Generate("import", Params{Path: path}, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 6 {
		t.Fatalf("duplicate labels merged nodes: %s", g)
	}
}

// badImports are files both importers must refuse.
var badImports = []struct {
	name, file, data string
}{
	{"self loop", "x.adj", "a a 5\n"},
	{"bad capacity", "x.adj", "a b nope\n"},
	{"negative delay", "x.adj", "a b 10 -1\n"},
	{"NaN capacity", "x.adj", "a b NaN\n"},
	{"infinite capacity", "x.adj", "a b Inf\n"},
	{"NaN delay", "x.adj", "a b 100 NaN\n"},
	{"infinite delay", "x.adj", "a b 100 +Inf\n"},
	{"too many fields", "x.adj", "a b 10 1 9\n"},
	{"one field", "x.adj", "a b 10\nc\n"},
	{"empty", "x.adj", "# nothing\n"},
	{"gml no graph", "x.gml", "foo [ bar 1 ]"},
	{"gml unterminated string", "x.gml", "graph [ label \"oops\n node [ id 0 ] ]"},
	{"gml dangling edge", "x.gml", "graph [ node [ id 0 ] edge [ source 0 target 9 ] ]"},
	{"gml node without id", "x.gml", "graph [ node [ label \"x\" ] ]"},
	{"gml duplicate id", "x.gml", "graph [ node [ id 0 ] node [ id 0 ] edge [ source 0 target 0 ] ]"},
	{"gml NaN capacity", "x.gml", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 capacity NaN ] ]"},
	{"gml infinite capacity", "x.gml", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 capacity Inf ] ]"},
	{"gml overflowing bandwidth", "x.gml", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 bandwidth 1e400 ] ]"},
	{"gml NaN delay", "x.gml", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 delay NaN ] ]"},
	{"gml negative delay", "x.gml", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 delay -5 ] ]"},
}

func TestImportErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, tc := range badImports {
		path := writeFile(t, tc.file, tc.data)
		if _, err := Generate("import", Params{Path: path}, rng); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestImportDisconnectedRejected(t *testing.T) {
	path := writeFile(t, "split.adj", "a b 10\nc d 10\n")
	_, err := Generate("import", Params{Path: path}, rand.New(rand.NewPCG(1, 1)))
	if err == nil || !strings.Contains(err.Error(), "connect") {
		t.Fatalf("disconnected import: err = %v", err)
	}
}

func TestImportNodeCountAssertion(t *testing.T) {
	path := writeFile(t, "net.adj", "a b 10\nb c 10\nc a 10\n")
	if _, err := Generate("import", Params{Path: path, Nodes: 5}, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
	if _, err := Generate("import", Params{Path: path, Nodes: 3}, rand.New(rand.NewPCG(1, 1))); err != nil {
		t.Fatalf("matching node count rejected: %v", err)
	}
}

// TestImportGMLIgnoresUnparseableAttributes pins that a GML attribute which
// is not a number is ignored, as real Topology-Zoo files carry free-text
// ones: the link keeps the default capacity and no delay.
func TestImportGMLIgnoresUnparseableAttributes(t *testing.T) {
	g, err := parseGML(`graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 capacity "10 Gbps" delay "?" ] ]`,
		Params{CapacityMbps: DefaultCapacity})
	if err != nil {
		t.Fatal(err)
	}
	if e := g.Edge(0); e.Capacity != DefaultCapacity || e.Delay != 0 {
		t.Fatalf("link = %+v, want the default capacity and no delay", e)
	}
}

// FuzzImport drives both importers, selected by gml and seeded from this
// file's fixtures. Neither may panic, and an accepted graph must have finite
// positive capacities, finite non-negative delays, adjacency-list node names
// that are unique (GML names are labels, which may repeat; identity is the
// id), and a CSR that builds and validates.
func FuzzImport(f *testing.F) {
	f.Add(true, testGML)
	f.Add(true, dupLabelGML)
	for _, adj := range []string{"a b 100 2\nb c 100 3 # comment\nc a 50\n", "a b 10\nc d 10\n"} {
		f.Add(false, adj)
	}
	for _, tc := range badImports {
		f.Add(strings.HasSuffix(tc.file, ".gml"), tc.data)
	}
	f.Fuzz(func(t *testing.T, gml bool, data string) {
		parse := parseAdjacency
		if gml {
			parse = parseGML
		}
		g, err := parse(data, Params{CapacityMbps: DefaultCapacity})
		if err != nil {
			return
		}
		for _, e := range g.Edges() {
			if !(e.Capacity > 0) || math.IsInf(e.Capacity, 1) || !(e.Delay >= 0) || math.IsInf(e.Delay, 1) {
				t.Fatalf("accepted arc %+v from %q", e, data)
			}
		}
		if !gml {
			seen := map[string]bool{}
			for u := 0; u < g.NumNodes(); u++ {
				if name := g.Name(graph.NodeID(u)); seen[name] {
					t.Fatalf("node name %q repeated in %q", name, data)
				} else {
					seen[name] = true
				}
			}
		}
		if c := g.CSR(); len(c.To) != g.NumEdges() {
			t.Fatalf("CSR holds %d arcs, graph %d", len(c.To), g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted %q: %v", data, err)
		}
	})
}
