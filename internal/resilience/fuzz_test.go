package resilience

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"testing"

	"dualtopo/internal/graph"
)

// denseEnumerate is the reference enumerator FuzzEnumerate holds Enumerate
// to: it builds every labelled state of the family, then runs the partial
// Fisher–Yates over a dense index array the size of the family.
func denseEnumerate(g *graph.Graph, m Model) ([]State, error) {
	m = m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	links := Links(g)
	var states []State
	switch m.Kind {
	case KindLink:
		if m.Count == 1 {
			for _, l := range links {
				states = append(states, State{
					Label: fmt.Sprintf("link %s-%s", g.Name(l.A), g.Name(l.B)),
					Arcs:  []graph.EdgeID{l.AB, l.BA},
				})
			}
		} else {
			for i := 0; i < len(links); i++ {
				for j := i + 1; j < len(links); j++ {
					li, lj := links[i], links[j]
					states = append(states, State{
						Label: fmt.Sprintf("link %s-%s + link %s-%s",
							g.Name(li.A), g.Name(li.B), g.Name(lj.A), g.Name(lj.B)),
						Arcs: []graph.EdgeID{li.AB, li.BA, lj.AB, lj.BA},
					})
				}
			}
		}
	case KindNode:
		for n := 0; n < g.NumNodes(); n++ {
			u := graph.NodeID(n)
			arcs := append(append([]graph.EdgeID{}, g.Out(u)...), g.In(u)...)
			if len(arcs) == 0 {
				continue
			}
			states = append(states, State{Label: fmt.Sprintf("node %s", g.Name(u)), Arcs: arcs})
		}
	case KindSRLG:
		for gi, grp := range m.SRLGs {
			mark := make(map[graph.EdgeID]bool, 2*len(grp))
			var arcs []graph.EdgeID
			var names []string
			for _, li := range grp {
				if li >= len(links) {
					return nil, fmt.Errorf("resilience: srlg group %d references link %d, graph has %d links",
						gi, li, len(links))
				}
				l := links[li]
				for _, a := range []graph.EdgeID{l.AB, l.BA} {
					if !mark[a] {
						mark[a] = true
						arcs = append(arcs, a)
					}
				}
				names = append(names, fmt.Sprintf("%s-%s", g.Name(l.A), g.Name(l.B)))
			}
			states = append(states, State{
				Label: fmt.Sprintf("srlg %d (%s)", gi, strings.Join(names, ",")),
				Arcs:  arcs,
			})
		}
	}
	n := m.Sample
	if n <= 0 || n >= len(states) {
		return states, nil
	}
	rng := rand.New(rand.NewPCG(m.Seed, 0x7265736c69656e63))
	idx := make([]int, len(states))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + rng.IntN(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	picked := idx[:n]
	sort.Ints(picked)
	out := make([]State, n)
	for i, k := range picked {
		out[i] = states[k]
	}
	return out, nil
}

// fuzzGraph builds a small graph from bytes: the first byte sizes it (2 to
// 15 nodes), and each following triple adds a link, or a one-way arc when
// the third byte is even, so graphs with isolated nodes, parallel links and
// arcs without a reverse all occur.
func fuzzGraph(b []byte) *graph.Graph {
	n := 2
	if len(b) > 0 {
		n += int(b[0]) % 14
		b = b[1:]
	}
	g := graph.New(n)
	for i := 0; i+2 < len(b) && i < 120; i += 3 {
		u, v := graph.NodeID(int(b[i])%n), graph.NodeID(int(b[i+1])%n)
		switch {
		case u == v:
		case b[i+2]%2 == 0:
			g.AddArc(u, v, 100, 1)
		default:
			g.AddLink(u, v, 100, 1)
		}
	}
	return g
}

// fuzzSRLGs splits bytes into groups at 0xff; every other byte is a link
// index.
func fuzzSRLGs(b []byte) [][]int {
	var groups [][]int
	var cur []int
	for _, x := range b {
		if x == 0xff {
			groups, cur = append(groups, cur), nil
			continue
		}
		cur = append(cur, int(x))
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// FuzzEnumerate holds Enumerate and Size to the dense enumerator on random
// small graphs and models: the same error, the same states in the same
// order, and Size equal to the unsampled family. The seed corpus is the
// models of the enumeration golden.
func FuzzEnumerate(f *testing.F) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		f.Fatal(err)
	}
	ring := []byte{9, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0, 1, 0, 2, 1, 5, 6, 0}
	for _, c := range cases {
		f.Add(ring, c.Kind, uint8(c.Count), uint16(c.Sample%64), c.Seed, []byte{0, 1, 0xff, 2, 3, 4})
	}
	f.Fuzz(func(t *testing.T, edges []byte, kind string, count uint8, sample uint16, seed uint64, srlg []byte) {
		g := fuzzGraph(edges)
		m := Model{Kind: kind, Count: int(count % 4), SRLGs: fuzzSRLGs(srlg), Sample: int(sample % 512), Seed: seed}
		want, wantErr := denseEnumerate(g, m)
		got, err := Enumerate(g, m)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%+v: error %v, want %v", m, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: %d states, want %d", m, len(got), len(want))
		}
		for i := range want {
			if got[i].Label != want[i].Label || fmt.Sprint(got[i].Arcs) != fmt.Sprint(want[i].Arcs) {
				t.Fatalf("%+v: state %d = %+v, want %+v", m, i, got[i], want[i])
			}
		}
		full := m
		full.Sample = 0
		if all, err := denseEnumerate(g, full); err == nil && m.Size(g) != len(all) {
			t.Fatalf("%+v: Size %d, family %d", m, m.Size(g), len(all))
		}
	})
}
