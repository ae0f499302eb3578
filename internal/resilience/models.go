// Package resilience makes failure scenarios a structural layer of the
// dual-topology routing system: deterministic enumerators and seeded
// samplers over failure-state families (single link, dual link, node,
// shared-risk link group), and a Sweeper that evaluates every state on an
// eval.RoutingState (checkpoint → mask the arcs → read ΦL → revert) instead
// of re-running a full evaluation per state. The routing and scoring are the
// state's; this package owns the failure models, the Disabled masks and the
// full-evaluation oracles the delta path is verified against.
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
	"math/rand/v2"
	"sort"
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

// Size returns the number of states in the model's full enumeration over g
// — what Enumerate builds before it samples — so a caller can bound a
// request before paying for it. It is 0 for a model that does not validate.
func (m Model) Size(g *graph.Graph) int {
	m = m.Normalize()
	switch {
	case m.Validate() != nil:
		return 0
	case m.Kind == KindNode:
		n := 0
		for u := range graph.NodeID(g.NumNodes()) {
			if len(g.Out(u))+len(g.In(u)) > 0 {
				n++
			}
		}
		return n
	case m.Kind == KindSRLG:
		return len(m.SRLGs)
	}
	l := len(Links(g))
	if m.Count == 2 {
		return l * (l - 1) / 2
	}
	return l
}

// Enumerate expands the model into its deterministic state list over g,
// applying the model's seeded uniform sampling when configured. The result
// depends only on (g, m) — never on scheduling or prior calls.
func Enumerate(g *graph.Graph, m Model) ([]State, error) {
	m = m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	links := Links(g)
	var states []State
	switch m.Kind {
	case KindLink:
		if m.Count == 1 {
			states = make([]State, 0, len(links))
			for _, l := range links {
				states = append(states, State{
					Label: fmt.Sprintf("link %s-%s", g.Name(l.A), g.Name(l.B)),
					Arcs:  []graph.EdgeID{l.AB, l.BA},
				})
			}
		} else {
			states = make([]State, 0, len(links)*(len(links)-1)/2)
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
			arcs := make([]graph.EdgeID, 0, len(g.Out(u))+len(g.In(u)))
			arcs = append(arcs, g.Out(u)...)
			arcs = append(arcs, g.In(u)...)
			if len(arcs) == 0 {
				continue
			}
			states = append(states, State{
				Label: fmt.Sprintf("node %s", g.Name(u)),
				Arcs:  arcs,
			})
		}
	case KindSRLG:
		states = make([]State, 0, len(m.SRLGs))
		for gi, grp := range m.SRLGs {
			mark := make(map[graph.EdgeID]bool, 2*len(grp))
			arcs := make([]graph.EdgeID, 0, 2*len(grp))
			names := make([]string, 0, len(grp))
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
	return sampleStates(states, m.Sample, m.Seed), nil
}

// sampleStates draws a uniform sample of n states without replacement,
// seeded and order-preserving: the selected states keep their enumeration
// order, so downstream sweeps remain deterministic. Unlike a prefix
// truncation, every state is equally likely to be evaluated regardless of
// its edge IDs.
func sampleStates(states []State, n int, seed uint64) []State {
	if n <= 0 || n >= len(states) {
		return states
	}
	rng := rand.New(rand.NewPCG(seed, 0x7265736c69656e63)) // "reslienc"
	idx := make([]int, len(states))
	for i := range idx {
		idx[i] = i
	}
	// Partial Fisher–Yates: the first n entries become the sample.
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
	return out
}
