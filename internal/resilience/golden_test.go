package resilience

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/enumerate_golden.json")

const goldenPath = "testdata/enumerate_golden.json"

// goldenGraph builds one of the pinned graphs: the 16-node ISP backbone, the
// 8 PoP × 25 router two-tier ISP (200 nodes, 392 links), and a 30-node
// random graph.
func goldenGraph(t testing.TB, name string) *graph.Graph {
	t.Helper()
	var g *graph.Graph
	var err error
	switch name {
	case "isp":
		g = topo.ISPBackbone(topo.DefaultCapacity)
	case "hier-200":
		g, err = topo.Generate("hier", topo.Params{Pops: 8, RoutersPerPop: 25}, rand.New(rand.NewPCG(7, 7)))
	case "random-30":
		g, err = topo.Random(30, 75, topo.DefaultCapacity, rand.New(rand.NewPCG(30, 1)))
	default:
		t.Fatalf("unknown golden graph %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenSRLGs defines a graph's shared-risk groups for the pin: group k
// holds links k, 3k+1 and 7k+2 (mod the link count), for 40 groups.
func goldenSRLGs(g *graph.Graph) [][]int {
	l := len(Links(g))
	groups := make([][]int, 40)
	for k := range groups {
		groups[k] = []int{k % l, (3*k + 1) % l, (7*k + 2) % l}
	}
	return groups
}

// goldenCase is one pinned enumeration: the graph and model it ran, and the
// count and SHA-256 of its (label, arcs) lines.
type goldenCase struct {
	Graph  string `json:"graph"`
	Kind   string `json:"kind"`
	Count  int    `json:"count,omitempty"`
	Sample int    `json:"sample"`
	Seed   uint64 `json:"seed"`
	States int    `json:"states"`
	SHA256 string `json:"sha256"`
}

func (c goldenCase) model(g *graph.Graph) Model {
	m := Model{Kind: c.Kind, Count: c.Count, Sample: c.Sample, Seed: c.Seed}
	if c.Kind == KindSRLG {
		m.SRLGs = goldenSRLGs(g)
	}
	return m
}

// hashStates digests a state list line by line: label, tab, arcs.
func hashStates(states []State) string {
	h := sha256.New()
	for _, st := range states {
		fmt.Fprintf(h, "%s\t%v\n", st.Label, st.Arcs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCases lists every pinned enumeration: per graph and kind, samples 0
// (the whole family), 1, 4, 37 and Size−1, each under its own seed.
func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, name := range []string{"isp", "hier-200", "random-30"} {
		g := goldenGraph(t, name)
		for _, km := range []goldenCase{{Kind: KindLink}, {Kind: KindLink, Count: 2}, {Kind: KindNode}, {Kind: KindSRLG}} {
			size := km.model(g).Size(g)
			for i, sample := range []int{0, 1, 4, 37, size - 1} {
				c := km
				c.Graph, c.Sample, c.Seed = name, sample, uint64(11*i+len(name))
				states, err := Enumerate(g, c.model(g))
				if err != nil {
					t.Fatalf("%s %s sample %d: %v", name, c.model(g), sample, err)
				}
				c.States, c.SHA256 = len(states), hashStates(states)
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// TestEnumerateGolden pins every failure kind's state list — labels, arcs
// and order — full and sampled, on three graphs. Regenerate only for an
// intended change:
//
//	go test ./internal/resilience -run TestEnumerateGolden -update
func TestEnumerateGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenCases(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		var wantCases, gotCases []goldenCase
		_ = json.Unmarshal(want, &wantCases)
		_ = json.Unmarshal(got, &gotCases)
		for i := range min(len(wantCases), len(gotCases)) {
			if wantCases[i] != gotCases[i] {
				t.Errorf("case %d: got %+v, want %+v", i, gotCases[i], wantCases[i])
			}
		}
		t.Fatalf("enumeration golden differs (%d cases, want %d)", len(gotCases), len(wantCases))
	}
}
