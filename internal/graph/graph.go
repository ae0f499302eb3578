// Package graph provides the directed-graph substrate used by every other
// package in this module: nodes, directed arcs with capacities and
// propagation delays, adjacency queries, and structural checks.
//
// Terminology follows the paper: a "link" is a bidirectional connection
// realized as two directed arcs, one per direction. All routing, load and
// cost computations operate on arcs.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID is a dense, zero-based node index.
type NodeID int32

// EdgeID is a dense, zero-based directed-arc index.
type EdgeID int32

// MaxNodes and MaxArcs bound graph sizes so every index fits the 32-bit
// NodeID/EdgeID types and the CSR's int32 offset arrays (which need one
// past-the-end slot). Exceeding either fails loudly with a typed error —
// silent index truncation would corrupt routing state undetectably.
const (
	MaxNodes = math.MaxInt32 - 1
	MaxArcs  = math.MaxInt32 - 1
)

// ErrTooManyNodes and ErrTooManyArcs are the typed capacity-overflow
// failures; guards wrap them, so test with errors.Is.
var (
	ErrTooManyNodes = errors.New("graph: node count exceeds int32 index space")
	ErrTooManyArcs  = errors.New("graph: arc count exceeds int32 index space")
)

// CheckCounts validates that a graph with the given node and arc counts is
// representable in the 32-bit index layout. Generators that size graphs from
// user parameters should call it before allocating.
func CheckCounts(nodes, arcs int) error {
	if nodes < 0 || nodes > MaxNodes {
		return fmt.Errorf("%w: %d nodes > max %d", ErrTooManyNodes, nodes, MaxNodes)
	}
	if arcs < 0 || arcs > MaxArcs {
		return fmt.Errorf("%w: %d arcs > max %d", ErrTooManyArcs, arcs, MaxArcs)
	}
	return nil
}

// Edge is a directed arc with a capacity (Mbps) and a propagation delay (ms).
type Edge struct {
	ID       EdgeID
	From, To NodeID
	Capacity float64
	Delay    float64
}

// Graph is a directed graph with per-arc capacities and propagation delays.
// The zero value is an empty graph; use New to create one with nodes.
type Graph struct {
	names []string
	edges []Edge
	out   [][]EdgeID
	in    [][]EdgeID

	// csr caches the flat adjacency snapshot; it is rebuilt lazily after
	// structural mutations (AddArc). Concurrent readers may race to build
	// equivalent snapshots, which is harmless.
	csr atomic.Pointer[CSR]
}

// New returns a graph with n isolated nodes named "n0".."n<n-1>". It panics
// with an error wrapping ErrTooManyNodes if n exceeds MaxNodes.
func New(n int) *Graph {
	if err := CheckCounts(n, 0); err != nil {
		panic(err)
	}
	g := &Graph{
		names: make([]string, n),
		out:   make([][]EdgeID, n),
		in:    make([][]EdgeID, n),
	}
	for i := range g.names {
		g.names[i] = fmt.Sprintf("n%d", i)
	}
	return g
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges reports the number of directed arcs.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the arc with the given ID. It panics if id is out of range.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the arc slice. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the IDs of arcs leaving u. Callers must not modify it.
func (g *Graph) Out(u NodeID) []EdgeID { return g.out[u] }

// In returns the IDs of arcs entering u. Callers must not modify it.
func (g *Graph) In(u NodeID) []EdgeID { return g.in[u] }

// Name returns the display name of node u.
func (g *Graph) Name(u NodeID) string { return g.names[u] }

// SetName sets the display name of node u.
func (g *Graph) SetName(u NodeID, name string) { g.names[u] = name }

// NodeByName returns the node with the given display name.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	for i, n := range g.names {
		if n == name {
			return NodeID(i), true
		}
	}
	return 0, false
}

// AddArc appends a directed arc and returns its ID. It panics if either
// endpoint is out of range, the arc is a self-loop, or the arc count would
// exceed MaxArcs (an error wrapping ErrTooManyArcs — never a silently
// wrapped-around EdgeID); topology construction bugs should fail fast rather
// than corrupt later routing computations.
func (g *Graph) AddArc(from, to NodeID, capacity, delay float64) EdgeID {
	if from == to {
		panic(fmt.Sprintf("graph: self-loop at node %d", from))
	}
	g.checkNode(from)
	g.checkNode(to)
	if err := arcCountGuard(len(g.edges)); err != nil {
		panic(err)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Capacity: capacity, Delay: delay})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.invalidateCSR()
	return id
}

// AddLink adds a bidirectional link as two arcs sharing capacity and delay
// values, returning both arc IDs.
func (g *Graph) AddLink(u, v NodeID, capacity, delay float64) (uv, vu EdgeID) {
	uv = g.AddArc(u, v, capacity, delay)
	vu = g.AddArc(v, u, capacity, delay)
	return uv, vu
}

// arcCountGuard rejects appending one more arc to a graph already holding
// cur arcs when the new ID would not fit EdgeID. Split out so the boundary
// condition is testable without allocating 2^31 arcs.
func arcCountGuard(cur int) error {
	if cur >= MaxArcs {
		return fmt.Errorf("%w: cannot add arc %d", ErrTooManyArcs, cur)
	}
	return nil
}

func (g *Graph) checkNode(u NodeID) {
	if u < 0 || int(u) >= len(g.names) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.names)))
	}
}

// ArcBetween returns the first arc from u to v, if any.
func (g *Graph) ArcBetween(u, v NodeID) (EdgeID, bool) {
	for _, id := range g.out[u] {
		if g.edges[id].To == v {
			return id, true
		}
	}
	return 0, false
}

// HasLink reports whether arcs exist in both directions between u and v.
func (g *Graph) HasLink(u, v NodeID) bool {
	_, fwd := g.ArcBetween(u, v)
	_, rev := g.ArcBetween(v, u)
	return fwd && rev
}

// Reverse returns the opposite-direction arc of id when the graph contains
// one (always true for graphs built with AddLink).
func (g *Graph) Reverse(id EdgeID) (EdgeID, bool) {
	e := g.edges[id]
	return g.ArcBetween(e.To, e.From)
}

// SetDelay updates the propagation delay of arc id.
func (g *Graph) SetDelay(id EdgeID, delay float64) {
	g.edges[id].Delay = delay
	g.invalidateCSR()
}

// SetCapacity updates the capacity of arc id.
func (g *Graph) SetCapacity(id EdgeID, capacity float64) {
	g.edges[id].Capacity = capacity
	g.invalidateCSR()
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names: append([]string(nil), g.names...),
		edges: append([]Edge(nil), g.edges...),
		out:   make([][]EdgeID, len(g.out)),
		in:    make([][]EdgeID, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	return c
}

// Validate checks structural invariants: endpoint ranges, no self-loops,
// consistent adjacency indexes, and positive capacities.
func (g *Graph) Validate() error {
	for _, e := range g.edges {
		if e.From < 0 || int(e.From) >= g.NumNodes() || e.To < 0 || int(e.To) >= g.NumNodes() {
			return fmt.Errorf("graph: arc %d endpoints (%d,%d) out of range", e.ID, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: arc %d is a self-loop at %d", e.ID, e.From)
		}
		if e.Capacity <= 0 {
			return fmt.Errorf("graph: arc %d has non-positive capacity %g", e.ID, e.Capacity)
		}
		if e.Delay < 0 {
			return fmt.Errorf("graph: arc %d has negative delay %g", e.ID, e.Delay)
		}
	}
	seen := 0
	for u, ids := range g.out {
		for _, id := range ids {
			if g.edges[id].From != NodeID(u) {
				return fmt.Errorf("graph: out-adjacency of %d lists arc %d from %d", u, id, g.edges[id].From)
			}
			seen++
		}
	}
	if seen != len(g.edges) {
		return fmt.Errorf("graph: adjacency covers %d arcs, have %d", seen, len(g.edges))
	}
	return nil
}

// ErrDisconnected is returned by RequireStronglyConnected when some node
// cannot reach, or be reached from, node 0.
var ErrDisconnected = errors.New("graph: not strongly connected")

// StronglyConnected reports whether every node can reach every other node.
func (g *Graph) StronglyConnected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	return g.reachableCount(0, false) == n && g.reachableCount(0, true) == n
}

// RequireStronglyConnected returns ErrDisconnected unless the graph is
// strongly connected. Routing requires full reachability: a traffic matrix
// entry between disconnected nodes has no well-defined cost.
func (g *Graph) RequireStronglyConnected() error {
	if !g.StronglyConnected() {
		return ErrDisconnected
	}
	return nil
}

// reachableCount counts nodes reachable from start following arcs forward,
// or backward when reverse is true.
func (g *Graph) reachableCount(start NodeID, reverse bool) int {
	visited := make([]bool, g.NumNodes())
	stack := []NodeID{start}
	visited[start] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		adj := g.out[u]
		if reverse {
			adj = g.in[u]
		}
		for _, id := range adj {
			v := g.edges[id].To
			if reverse {
				v = g.edges[id].From
			}
			if !visited[v] {
				visited[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count
}

// UndirectedDegree reports the number of distinct neighbors of u counting
// either arc direction once.
func (g *Graph) UndirectedDegree(u NodeID) int {
	seen := make(map[NodeID]bool)
	for _, id := range g.out[u] {
		seen[g.edges[id].To] = true
	}
	for _, id := range g.in[u] {
		seen[g.edges[id].From] = true
	}
	return len(seen)
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{%d nodes, %d arcs}", g.NumNodes(), g.NumEdges())
}
