// Package resilience makes failure scenarios a structural layer of the
// dual-topology routing system: failure-state families (single link, dual
// link, node, shared-risk link group) indexed so that a seeded sample costs
// its own size, and a Sweeper that scores every state on its evaluator's
// eval.RoutingState (checkpoint → mask the arcs → read ΦL → revert).
//
// The failure semantics follow the paper's §5 robustness study: link weights
// stay fixed across failures (operators run between re-optimizations) and
// OSPF reconverges on the surviving arcs. A state that leaves some demand
// without a path "disconnects" the network: both routing schemes lose the
// same physical reachability, so such states are counted and skipped rather
// than scored.
package resilience

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"

	"dualtopo/internal/graph"
)

// Failure-model kinds accepted by Model.
const (
	// KindLink fails Count bidirectional links simultaneously (1 or 2).
	KindLink = "link"
	// KindNode fails one node: every arc entering or leaving it. Any demand
	// sourced at or destined to the failed node is stranded by construction,
	// so node sweeps are informative only on instances with demand-free
	// transit nodes (all-pairs gravity demand disconnects on every state).
	KindNode = "node"
	// KindSRLG fails one shared-risk link group: a caller-defined set of
	// links that share fate (a conduit, a line card, a fiber span).
	KindSRLG = "srlg"
)

// Model selects a failure-state family and how much of it to evaluate. The
// zero value normalizes to every single bidirectional link failure.
type Model struct {
	// Kind is "link", "node" or "srlg"; empty means "link".
	Kind string
	// Count is the number of simultaneously failed links for KindLink: 1
	// (every single-link failure) or 2 (every unordered link pair). 0 means 1.
	Count int
	// SRLGs lists the shared-risk groups for KindSRLG as indexes into the
	// canonical Links order (ascending first-arc ID).
	SRLGs [][]int
	// Sample, when positive and smaller than the family, evaluates a seeded
	// uniform sample of that many states instead of the full enumeration.
	// Enumeration order is preserved, so sampled sweeps stay deterministic.
	Sample int
	// Seed drives the sampler; it is ignored when no sampling happens.
	Seed uint64
}

// Normalize resolves the zero-value defaults.
func (m Model) Normalize() Model {
	if m.Kind == "" {
		m.Kind = KindLink
	}
	if m.Count == 0 {
		m.Count = 1
	}
	return m
}

// Validate reports the first graph-independent problem with the model.
// SRLG link indexes are range-checked later, by Enumerate.
func (m Model) Validate() error {
	m = m.Normalize()
	switch m.Kind {
	case KindLink:
		if m.Count != 1 && m.Count != 2 {
			return fmt.Errorf("resilience: link failure count %d (want 1 or 2)", m.Count)
		}
	case KindNode:
	case KindSRLG:
		if len(m.SRLGs) == 0 {
			return fmt.Errorf("resilience: srlg model without groups")
		}
		for gi, grp := range m.SRLGs {
			if len(grp) == 0 {
				return fmt.Errorf("resilience: srlg group %d is empty", gi)
			}
			for _, li := range grp {
				if li < 0 {
					return fmt.Errorf("resilience: srlg group %d has negative link index %d", gi, li)
				}
			}
		}
	default:
		return fmt.Errorf("resilience: unknown failure kind %q (link|node|srlg)", m.Kind)
	}
	if m.Sample < 0 {
		return fmt.Errorf("resilience: negative sample size %d", m.Sample)
	}
	return nil
}

// String renders the model for summaries, e.g. "link", "dual-link",
// "node(sample=8)".
func (m Model) String() string {
	m = m.Normalize()
	name := m.Kind
	if m.Kind == KindLink && m.Count == 2 {
		name = "dual-link"
	}
	if m.Sample > 0 {
		return fmt.Sprintf("%s(sample=%d)", name, m.Sample)
	}
	return name
}

// State is one failure state: the set of arcs that go down together.
type State struct {
	// Label identifies the state in reports ("link n3-n7", "node n4", ...).
	Label string
	// Arcs are the simultaneously disabled arcs.
	Arcs []graph.EdgeID
}

// Link is one bidirectional link in canonical order: AB is the
// lower-numbered arc, BA its reverse.
type Link struct {
	AB, BA graph.EdgeID
	A, B   graph.NodeID
}

// Links returns the graph's bidirectional links in canonical order
// (ascending AB arc ID). Arcs without a reverse are not links and are
// skipped, matching the paper's bidirectional failure model.
func Links(g *graph.Graph) []Link {
	seen := make([]bool, g.NumEdges())
	links := make([]Link, 0, g.NumEdges()/2)
	for _, e := range g.Edges() {
		if seen[e.ID] {
			continue
		}
		rev, ok := g.Reverse(e.ID)
		if !ok {
			continue
		}
		seen[e.ID] = true
		seen[rev] = true
		links = append(links, Link{AB: e.ID, BA: rev, A: e.From, B: e.To})
	}
	return links
}

// family is a model resolved against one graph, the one definition of each
// failure kind: Size counts it, Enumerate unranks its states from it.
type family struct {
	g     *graph.Graph
	m     Model
	links []Link         // the link kinds and SRLG: canonical link order
	nodes []graph.NodeID // KindNode: the nodes with at least one arc
	size  int
}

func newFamily(g *graph.Graph, m Model) (family, error) {
	m = m.Normalize()
	if err := m.Validate(); err != nil {
		return family{}, err
	}
	f := family{g: g, m: m}
	if m.Kind == KindNode {
		f.nodes = make([]graph.NodeID, 0, g.NumNodes())
		for u := range graph.NodeID(g.NumNodes()) {
			if len(g.Out(u))+len(g.In(u)) > 0 {
				f.nodes = append(f.nodes, u)
			}
		}
		f.size = len(f.nodes)
		return f, nil
	}
	f.links = Links(g)
	l := len(f.links)
	switch {
	case m.Kind == KindSRLG:
		for gi, grp := range m.SRLGs {
			for _, li := range grp {
				if li >= l {
					return family{}, fmt.Errorf("resilience: srlg group %d references link %d, graph has %d links", gi, li, l)
				}
			}
		}
		f.size = len(m.SRLGs)
	case m.Count == 2:
		f.size = l * (l - 1) / 2
	default:
		f.size = l
	}
	return f, nil
}

// state unranks state i of the family:
//   - link: link i;
//   - dual-link: the i-th link pair (a < b), a-major;
//   - node: the i-th node with an arc, every arc out of and into it;
//   - SRLG: group i, its links' arcs deduplicated in group order.
func (f *family) state(i int) State {
	g := f.g
	switch {
	case f.m.Kind == KindNode:
		u := f.nodes[i]
		arcs := make([]graph.EdgeID, 0, len(g.Out(u))+len(g.In(u)))
		return State{Label: "node " + g.Name(u), Arcs: append(append(arcs, g.Out(u)...), g.In(u)...)}
	case f.m.Kind == KindSRLG:
		grp := f.m.SRLGs[i]
		mark := make(map[graph.EdgeID]bool, 2*len(grp))
		arcs := make([]graph.EdgeID, 0, 2*len(grp))
		names := make([]string, len(grp))
		for k, li := range grp {
			l := f.links[li]
			for _, a := range [2]graph.EdgeID{l.AB, l.BA} {
				if !mark[a] {
					mark[a] = true
					arcs = append(arcs, a)
				}
			}
			names[k] = g.Name(l.A) + "-" + g.Name(l.B)
		}
		return State{Label: fmt.Sprintf("srlg %d (%s)", i, strings.Join(names, ",")), Arcs: arcs}
	case f.m.Count == 2:
		a, b := pairAt(i, len(f.links))
		la, lb := f.links[a], f.links[b]
		return State{
			Label: fmt.Sprintf("link %s-%s + link %s-%s", g.Name(la.A), g.Name(la.B), g.Name(lb.A), g.Name(lb.B)),
			Arcs:  []graph.EdgeID{la.AB, la.BA, lb.AB, lb.BA},
		}
	}
	l := f.links[i]
	return State{Label: fmt.Sprintf("link %s-%s", g.Name(l.A), g.Name(l.B)), Arcs: []graph.EdgeID{l.AB, l.BA}}
}

// pairAt inverts the a-major rank start(a) + b−a−1 of the pairs a < b of n
// items, start(a) = a(2n−a−1)/2 being the pairs before row a: the float root
// of start(a) = k lands on a or next to it, and the loops settle it exactly.
func pairAt(k, n int) (a, b int) {
	start := func(a int) int { return a * (2*n - a - 1) / 2 }
	c := float64(2*n - 1)
	a = int((c - math.Sqrt(c*c-8*float64(k))) / 2)
	for a > 0 && start(a) > k {
		a--
	}
	for start(a+1) <= k {
		a++
	}
	return a, k - start(a) + a + 1
}

// Size returns the number of states in the model's family over g, before any
// sampling and without building one; 0 for a model that does not validate.
func (m Model) Size(g *graph.Graph) int {
	f, err := newFamily(g, m)
	if err != nil {
		return 0
	}
	return f.size
}

// Enumerate expands the model into its state list over g: the whole family,
// or, when the model samples fewer states than that, a seeded uniform sample
// without replacement, in enumeration order either way. Unlike a prefix,
// every state is equally likely to be swept, and a sample costs memory in its
// own size. The result depends only on (g, m).
func Enumerate(g *graph.Graph, m Model) ([]State, error) {
	f, err := newFamily(g, m)
	if err != nil {
		return nil, err
	}
	if m.Sample <= 0 || m.Sample >= f.size {
		states := make([]State, f.size)
		for i := range states {
			states[i] = f.state(i)
		}
		return states, nil
	}
	// Partial Fisher–Yates over the identity permutation of the family's
	// indexes; swapped holds the only positions that left the identity.
	rng := rand.New(rand.NewPCG(m.Seed, 0x7265736c69656e63)) // "reslienc"
	swapped := make(map[int]int, m.Sample)
	at := func(k int) int {
		if v, ok := swapped[k]; ok {
			return v
		}
		return k
	}
	picks := make([]int, m.Sample)
	for i := range picks {
		j := i + rng.IntN(f.size-i)
		picks[i], swapped[j] = at(j), at(i)
	}
	slices.Sort(picks)
	states := make([]State, len(picks))
	for k, i := range picks {
		states[k] = f.state(i)
	}
	return states, nil
}
