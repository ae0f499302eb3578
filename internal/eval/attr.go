package eval

import (
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// Attribution apportions an evaluated routing's objective onto individual
// arcs, giving the search a per-arc answer to "which links is the incumbent
// paying for?". The guided candidate generator sorts on these scores instead
// of the blind rank ordering, so moves concentrate on the arcs that actually
// carry the cost.
//
// Scores are relative: only their ordering matters to the search. The
// buffers are owned by the Attribution and reused across Attribute calls.
type Attribution struct {
	// HScore ranks arcs by their contribution to the primary objective:
	// per-arc ΦH for load-based runs; for SLA runs, the violation mass — the
	// summed penalty of every violating high-priority pair whose shortest
	// paths can traverse the arc — falling back to the per-arc Eq. (3) delay
	// when no pair violates.
	HScore []float64
	// LScore ranks arcs by their contribution to ΦL (per-arc ΦL).
	LScore []float64

	// DAG-walk scratch, reused across calls.
	visited []int32
	epoch   int32
	queue   []graph.NodeID
}

// Attribute fills a with per-arc scores for r. r must be the evaluator's
// most recent full evaluation, so that, for SLA instances, the evaluator's
// plan trees still sit at r's high-priority weights: the violation walk
// follows those DAGs. After an EvaluateSTR they are STR's trees, which route
// both classes.
func (e *Evaluator) Attribute(r *Result, a *Attribution) { e.AttributeTrees(r, a, e.plan) }

// AttributeTrees is Attribute over r's high-priority trees held elsewhere —
// a search's incumbent lives in a RoutingState, whose router holds them.
func (e *Evaluator) AttributeTrees(r *Result, a *Attribution, trees interface{ Tree(graph.NodeID) *spf.Tree }) {
	n := e.g.NumEdges()
	if cap(a.HScore) < n {
		a.HScore = make([]float64, n)
		a.LScore = make([]float64, n)
	}
	a.HScore = a.HScore[:n]
	a.LScore = a.LScore[:n]
	copy(a.LScore, r.LinkPhiL)

	if r.kind != SLABased || r.Violations == 0 {
		if r.kind == SLABased {
			// No violating pair: rank by delay, the primary sort key the
			// blind search uses, so guidance still points at the slow arcs.
			copy(a.HScore, r.LinkDelay)
		} else {
			copy(a.HScore, r.LinkPhiH)
		}
		return
	}

	// SLA with violations: stamp each violating pair's penalty onto every
	// arc reachable from its source in the destination tree's ECMP DAG —
	// exactly the arcs whose weight or load could move the pair's delay.
	for i := range a.HScore {
		a.HScore[i] = 0
	}
	if cap(a.visited) < e.g.NumNodes() {
		a.visited = make([]int32, e.g.NumNodes())
	}
	a.visited = a.visited[:e.g.NumNodes()]
	pair := 0
	for di, dest := range e.hpDests {
		t := trees.Tree(dest)
		for _, src := range e.hpSrcs[di] {
			pen := e.opts.SLA.PairPenalty(r.PairDelays[pair])
			pair++
			if pen <= 0 {
				continue
			}
			// BFS over the DAG from src: each node enqueued once, so each
			// arc (owned by its unique tail) is scored once per pair.
			a.epoch++
			a.queue = append(a.queue[:0], src)
			a.visited[src] = a.epoch
			for len(a.queue) > 0 {
				u := a.queue[len(a.queue)-1]
				a.queue = a.queue[:len(a.queue)-1]
				for _, id := range t.Next(u) {
					a.HScore[id] += pen
					if v := e.g.CSR().To[id]; a.visited[v] != a.epoch {
						a.visited[v] = a.epoch
						a.queue = append(a.queue, v)
					}
				}
			}
		}
	}
}
