// Package spf implements the OSPF-style shortest-path forwarding model the
// paper assumes: per-destination shortest-path DAGs under integer link
// weights, even ECMP splitting at every hop (the Fortz–Thorup convention),
// per-arc load aggregation for a traffic matrix, and expected end-to-end
// delay over the ECMP DAG.
package spf

import (
	"errors"
	"fmt"
	"math"

	"dualtopo/internal/graph"
)

// Weights assigns a routing weight to every arc (indexed by EdgeID).
// Weights must be >= 1; the paper uses the range [1, 30]. The sentinel
// Disabled removes an arc from routing entirely (link failure).
type Weights []int

// Disabled marks an arc as failed/unusable: SPF ignores it completely.
const Disabled = int(^uint32(0) >> 1) // large sentinel, never a real weight

// Clone returns a copy of w.
func (w Weights) Clone() Weights { return append(Weights(nil), w...) }

// WithFailedArcs returns a copy of w with the given arcs disabled.
func (w Weights) WithFailedArcs(arcs ...graph.EdgeID) Weights {
	c := w.Clone()
	for _, id := range arcs {
		c[id] = Disabled
	}
	return c
}

// Uniform returns unit weights (hop-count routing) for a graph with n arcs.
func Uniform(n int) Weights {
	w := make(Weights, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Validate checks that w covers every arc with a positive weight (or the
// Disabled sentinel).
func (w Weights) Validate(g *graph.Graph) error {
	if len(w) != g.NumEdges() {
		return fmt.Errorf("spf: %d weights for %d arcs", len(w), g.NumEdges())
	}
	for i, x := range w {
		if x < 1 {
			return fmt.Errorf("spf: arc %d has non-positive weight %d", i, x)
		}
	}
	return nil
}

// maxWeight returns the largest non-Disabled weight in w (0 when every arc
// is disabled) — the bucket-queue width selector.
func maxWeight(w Weights) int {
	max := 0
	for _, x := range w {
		if x != Disabled && x > max {
			max = x
		}
	}
	return max
}

// unreachable marks nodes with no path to the destination. Distances are
// int32 (the compact tree layout halves the former int64 Dist array);
// checkDistRange guarantees every finite distance stays strictly below it.
const unreachable = math.MaxInt32

// ErrNoPath reports that a routing pass found positive demand at a node
// with no path to its destination — the signature of a disconnecting
// failure. Callers that replay failures (resilience sweeps, churn replay)
// match it with errors.Is to separate survivable disconnection from
// genuine errors like ErrDistRange.
var ErrNoPath = errors.New("no path to destination")

// ErrDistRange reports that node count × maximum weight could push a path
// distance past the int32 tree layout. The bound is conservative (longest
// possible path: every node traversed at the maximum arc weight) so passing
// it guarantees no Dijkstra relaxation can overflow. Weight searches stay
// far below it — 100k nodes at the paper's weight cap of 30 is ~3M of the
// ~2.1B budget — but synthetic inputs fail loudly here, never by silent
// distance wraparound.
var ErrDistRange = errors.New("spf: distance range exceeds int32 tree layout")

// CheckDistRange validates that shortest-path distances on a graph with n
// nodes under w fit the int32 tree layout. Route/Apply entry points call it
// per weight set; Computer.Tree panics with the same error for API
// compatibility.
func CheckDistRange(n int, w Weights) error {
	return checkDistRange(n, maxWeight(w))
}

func checkDistRange(n, maxW int) error {
	if int64(n)*int64(maxW) >= int64(unreachable) {
		return fmt.Errorf("%w: %d nodes × max weight %d ≥ %d", ErrDistRange, n, maxW, unreachable)
	}
	return nil
}

// Tree is the shortest-path structure rooted at one destination: distances,
// the ECMP DAG (per-node set of outgoing arcs on shortest paths toward
// Dest), and the nodes in increasing-distance order. A Tree is filled by
// Computer.Tree and remains valid until its next reuse.
//
// The ECMP DAG is stored flat in CSR form: the arcs leaving u on shortest
// paths are NextArcs[NextStart[u]:NextStart[u+1]], in ascending arc ID.
// Compared to a slice-of-slices this removes a pointer chase per node from
// every load-aggregation and delay pass and lets Computer.Tree reuse two
// flat buffers instead of n slice headers, making steady-state routing
// allocation-free.
//
// Order is canonical: reachable nodes sorted by (Dist, node ID). This makes
// a Tree — and every load vector aggregated over it — a pure function of
// (graph, weights, destination), independent of the priority queue's
// tie-breaking history. The incremental DeltaRouter relies on this to keep
// untouched trees bitwise-identical to a from-scratch recomputation.
type Tree struct {
	Dest  graph.NodeID
	Dist  []int32        // Dist[u]: shortest weighted distance u -> Dest
	Order []graph.NodeID // reachable nodes sorted by increasing (Dist, ID), Dest first

	// NextStart/NextArcs are the flat ECMP DAG: NextStart is an n+1 offset
	// array into NextArcs, which lists arcs (u,v) with w(u,v)+Dist[v] ==
	// Dist[u] grouped by u in ascending arc ID.
	NextStart []int32
	NextArcs  []graph.EdgeID
}

// Next returns the ECMP arcs leaving u toward Dest. Callers must not modify
// the returned slice; it aliases the tree's flat storage.
func (t *Tree) Next(u graph.NodeID) []graph.EdgeID {
	return t.NextArcs[t.NextStart[u]:t.NextStart[u+1]]
}

// NextLen reports the number of ECMP arcs leaving u toward Dest.
func (t *Tree) NextLen(u graph.NodeID) int {
	return int(t.NextStart[u+1] - t.NextStart[u])
}

// Reaches reports whether u has a path to the destination.
func (t *Tree) Reaches(u graph.NodeID) bool { return t.Dist[u] != unreachable }

// NextHops returns the ECMP next-hop nodes of u toward Dest.
func (t *Tree) NextHops(g *graph.Graph, u graph.NodeID) []graph.NodeID {
	arcs := t.Next(u)
	hops := make([]graph.NodeID, 0, len(arcs))
	for _, id := range arcs {
		hops = append(hops, g.Edge(id).To)
	}
	return hops
}

// Computer runs repeated single-destination SPF computations over one graph,
// reusing internal buffers. It is not safe for concurrent use; create one
// Computer per goroutine.
type Computer struct {
	g     *graph.Graph
	csr   *graph.CSR // flat adjacency snapshot, the traversal hot path
	bq    bucketQueue
	hp    heap4
	stage []graph.EdgeID // ECMP-DAG staging buffer, one slot per arc; idle between tree builds
	flow  []float64      // buffer for load aggregation
	upd   updateScratch  // TreeUpdate buffers

	forceHeap bool
}

// NewComputer returns a Computer for g. The graph's structure and arc
// attributes are snapshotted; mutate the graph only before creating
// Computers over it.
func NewComputer(g *graph.Graph) *Computer {
	n := g.NumNodes()
	c := &Computer{
		g:     g,
		csr:   g.CSR(),
		stage: make([]graph.EdgeID, g.NumEdges()),
		flow:  make([]float64, n),
	}
	c.hp.ensure(n)
	return c
}

// SetForceHeap forces the indexed-heap Dijkstra even when the weight range
// is bucket-eligible. Benchmark/debug knob: both queues produce
// bitwise-identical trees, so this only trades constants.
func (c *Computer) SetForceHeap(v bool) { c.forceHeap = v }

// Tree computes the shortest-path DAG toward dest under w, storing the
// result in t (its flat buffers are reused when large enough, so a warm
// tree is recomputed without allocating). It panics with an error wrapping
// ErrDistRange when node count × max weight exceeds the int32 distance
// layout; error-returning callers should gate with CheckDistRange first
// (Route/Apply do).
func (c *Computer) Tree(dest graph.NodeID, w Weights, t *Tree) {
	c.tree(dest, w, t, c.maxWFor(w))
}

// maxWFor returns the maximum-weight scan for w: the bucket-width selector
// and the distance-range bound. All-destinations callers compute it once per
// weight setting and pass it to tree, instead of rescanning w per
// destination. It panics with ErrDistRange on overflow (the scan is the
// guard point every tree build funnels through).
func (c *Computer) maxWFor(w Weights) int {
	maxW := maxWeight(w)
	if err := checkDistRange(c.csr.NumNodes(), maxW); err != nil {
		panic(err)
	}
	return maxW
}

// tree is Tree with the bucket-width selector precomputed. maxW must be the
// true maximum non-Disabled weight, already validated by checkDistRange.
func (c *Computer) tree(dest graph.NodeID, w Weights, t *Tree, maxW int) {
	n := c.csr.NumNodes()
	t.Dest = dest
	if cap(t.Dist) < n {
		t.Dist = make([]int32, n)
	}
	t.Dist = t.Dist[:n]
	if cap(t.Order) < n {
		t.Order = make([]graph.NodeID, 0, n)
	}
	t.Order = t.Order[:0]
	for u := range t.Dist {
		t.Dist[u] = unreachable
	}
	t.Dist[dest] = 0

	// Dijkstra from dest over incoming arcs (reverse graph): Dist[u] is the
	// distance from u to dest in the forward graph. Bounded integer weights
	// route through the bucket queue; wide ranges fall back to the heap.
	// Either queue yields nodes in canonical (Dist, ID) order.
	if maxW <= maxBucketWeight && !c.forceHeap {
		met.treeBucket.Inc()
		c.dijkstraBucket(w, t, maxW)
	} else {
		met.treeHeap.Inc()
		c.dijkstraHeap(w, t)
	}
	c.buildNext(w, t)
}

// dijkstraBucket settles all distances through the monotone bucket queue,
// one whole distance class per pop. The relaxation's widened sum needs no
// Disabled test: du + Disabled is at least MaxInt32, never below a stored
// distance.
func (c *Computer) dijkstraBucket(w Weights, t *Tree, maxW int) {
	csr := c.csr
	q := &c.bq
	q.reset(maxW + 1)
	q.push(t.Dest, 0)
	dist := t.Dist
	for q.count > 0 {
		class, du := q.popClass(dist)
		t.Order = append(t.Order, class...)
		for _, u := range class {
			lo, hi := csr.InStart[u], csr.InStart[u+1]
			for i := lo; i < hi; i++ {
				v := csr.InFrom[i]
				if alt := int64(du) + int64(w[csr.InArcs[i]]); alt < int64(dist[v]) {
					dist[v] = int32(alt)
					q.push(v, int32(alt))
				}
			}
		}
	}
}

// dijkstraHeap is the wide-weight fallback over the indexed 4-ary heap.
func (c *Computer) dijkstraHeap(w Weights, t *Tree) {
	csr := c.csr
	h := &c.hp
	h.reset()
	h.push(t.Dest, 0)
	dist := t.Dist
	for h.len() > 0 {
		u, du := h.pop()
		t.Order = append(t.Order, u)
		lo, hi := csr.InStart[u], csr.InStart[u+1]
		for i := lo; i < hi; i++ {
			v := csr.InFrom[i]
			if alt := int64(du) + int64(w[csr.InArcs[i]]); alt < int64(dist[v]) {
				dist[v] = int32(alt)
				h.push(v, int32(alt))
			}
		}
	}
}

// buildNext fills the flat ECMP DAG in one sweep over the out-adjacency:
// NextStart is node-indexed and CSR out-runs ascend in arc ID, so walking
// the nodes in ID order and appending each one's run lays the arcs out in
// their final place.
func (c *Computer) buildNext(w Weights, t *Tree) {
	n := c.csr.NumNodes()
	if cap(t.NextStart) < n+1 {
		t.NextStart = make([]int32, n+1)
	}
	t.NextStart = t.NextStart[:n+1]
	// The arc total is unknown until the sweep ends, so runs are staged in an
	// m-sized buffer and the tree keeps only what it needs.
	total := int32(0)
	for u := 0; u < n; u++ {
		t.NextStart[u] = total
		total = c.nextRun(w, t.Dist, graph.NodeID(u), c.stage, total)
	}
	t.NextStart[n] = total
	if cap(t.NextArcs) < int(total) {
		// Grow with 50% headroom, capped at the arc count. A DAG holds at
		// most m arcs but typically far fewer; the old grow-straight-to-m
		// policy cost 4m bytes per tree (the dominant tree allocation at
		// 10k+ nodes) to save reallocations that the headroom already
		// absorbs across the ±1 weight steps a search performs.
		capHint := int(total + total/2)
		if capHint > len(w) {
			capHint = len(w)
		}
		t.NextArcs = make([]graph.EdgeID, 0, capHint)
	}
	t.NextArcs = append(t.NextArcs[:0], c.stage[:total]...)
}

// nextRun writes the ECMP arcs leaving u — arc (u,v) is on a shortest path
// iff w + Dist[v] == Dist[u] — to out[off:] in CSR order (ascending arc ID)
// and returns the offset past them; out needs room for u's whole out-degree
// beyond off. Every arc is stored and only a match advances the offset, so
// the test is not a branch. Widened to int64 it needs no Disabled or
// unreachable-head case either: Dist[u] is finite here, so below MaxInt32,
// and either of those pushes the sum to MaxInt32 or beyond.
func (c *Computer) nextRun(w Weights, dist []int32, u graph.NodeID, out []graph.EdgeID, off int32) int32 {
	du := int64(dist[u])
	if du == unreachable {
		return off
	}
	lo, hi := c.csr.OutStart[u], c.csr.OutStart[u+1]
	arcs, heads := c.csr.OutArcs[lo:hi], c.csr.OutTo[lo:hi]
	heads = heads[:len(arcs)]
	for i, id := range arcs {
		out[off] = id
		if int64(dist[heads[i]])+int64(w[id]) == du {
			off++
		}
	}
	return off
}

// AddLoads routes demand (volume per source node, destined to t.Dest) over
// the ECMP DAG and accumulates the resulting per-arc volume into loads.
// Traffic splits evenly across equal-cost next hops at every node. It
// returns an error if a positive demand originates at a node that cannot
// reach the destination.
func (c *Computer) AddLoads(t *Tree, demand []float64, loads []float64) error {
	flow := c.flow
	for i := range flow {
		flow[i] = 0
	}
	for u, d := range demand {
		if d == 0 {
			continue
		}
		if !t.Reaches(graph.NodeID(u)) {
			return fmt.Errorf("spf: node %d has demand %g but %w %d", u, d, ErrNoPath, t.Dest)
		}
		flow[u] = d
	}
	// Process nodes farthest-first so all upstream contributions to a node
	// are accumulated before its own flow is split. Order is canonical, so
	// the floating-point accumulation sequence — and thus the exact load
	// values — depend only on (graph, weights, demand).
	to := c.csr.To
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		f := flow[u]
		if f == 0 || u == t.Dest {
			continue
		}
		arcs := t.Next(u)
		share := f / float64(len(arcs))
		for _, id := range arcs {
			loads[id] += share
			flow[to[id]] += share
		}
	}
	return nil
}

// addLoadsTracked is AddLoads with support tracking: it performs the
// identical floating-point accumulation into pd (which must be zeroed)
// while appending each arc that becomes loaded to sup. Keeping it
// instruction-identical to AddLoads is what preserves bitwise equality
// between the incremental, parallel and sequential routing paths.
func (c *Computer) addLoadsTracked(t *Tree, demand, pd []float64, sup []graph.EdgeID) ([]graph.EdgeID, error) {
	flow := c.flow
	for i := range flow {
		flow[i] = 0
	}
	for u, d := range demand {
		if d == 0 {
			continue
		}
		if !t.Reaches(graph.NodeID(u)) {
			return sup, fmt.Errorf("spf: node %d has demand %g but %w %d", u, d, ErrNoPath, t.Dest)
		}
		flow[u] = d
	}
	to := c.csr.To
	for i := len(t.Order) - 1; i >= 0; i-- {
		u := t.Order[i]
		f := flow[u]
		if f == 0 || u == t.Dest {
			continue
		}
		arcs := t.Next(u)
		share := f / float64(len(arcs))
		for _, id := range arcs {
			if pd[id] == 0 {
				sup = append(sup, id)
			}
			pd[id] += share
			flow[to[id]] += share
		}
	}
	return sup, nil
}

// Delays fills xi with the expected end-to-end delay from every node to
// t.Dest, where arcDelay holds the per-arc delay (e.g. queueing +
// propagation, Eq. 3). The expectation is over the even ECMP split:
// xi(u) = mean over next hops (u,v) of (arcDelay(u,v) + xi(v)).
// Unreachable nodes get +Inf. The returned slice aliases xi when it has
// sufficient capacity.
func (t *Tree) Delays(g *graph.Graph, arcDelay []float64, xi []float64) []float64 {
	n := g.NumNodes()
	if cap(xi) < n {
		xi = make([]float64, n)
	}
	xi = xi[:n]
	for u := range xi {
		xi[u] = math.Inf(1)
	}
	xi[t.Dest] = 0
	// Increasing-distance order guarantees xi of all next hops is final
	// (arcs in the DAG strictly decrease distance since weights >= 1).
	to := g.CSR().To
	for _, u := range t.Order {
		if u == t.Dest {
			continue
		}
		arcs := t.Next(u)
		sum := 0.0
		for _, id := range arcs {
			sum += arcDelay[id] + xi[to[id]]
		}
		xi[u] = sum / float64(len(arcs))
	}
	return xi
}
