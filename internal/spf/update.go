package spf

import "dualtopo/internal/graph"

// Dynamic SPF (Ramalingam–Reps / Narváez): one update for every weight
// transition — raises, failures (a raise to +inf), lowers and repairs, mixed
// freely. A raised arc can only lengthen distances, and only for nodes whose
// every shortest path used a raised arc; a lowered arc can only shorten them,
// and only upstream of its tail. TreeUpdate classifies the first set over the
// stored DAG, resets it, seeds the tails of the lowered arcs that now beat
// their label, and settles both with one Dijkstra over the few labels that
// are not yet final; the ECMP structure is rebuilt only where it can have
// moved. Because integer shortest distances are unique and Next/Order are pure
// functions of the distance vector, the updated tree is bitwise-identical to
// a from-scratch recomputation.

// updateScratch holds TreeUpdate's reusable buffers.
type updateScratch struct {
	arcRaised []bool // per arc: weight increased this transition
	changed   []bool // per node: label reset by a raise or dropped by a lower
	rebuild   []bool // per node: Next run must be rebuilt
	cList     []graph.NodeID
	rList     []graph.NodeID
	settled   []graph.NodeID
	// newStart/newArcs double-buffer the flat ECMP rebuild and newOrder the
	// Order merge (rewritten iff orderMoved): each swaps with the tree's
	// array, so an update is allocation-free once warm and leaves the old
	// array behind, where a checkpointed DeltaRouter takes it as a pre-image.
	newStart   []int32
	newArcs    []graph.EdgeID
	newOrder   []graph.NodeID
	orderMoved bool
}

func (s *updateScratch) ensure(n, m int) {
	if len(s.arcRaised) < m {
		s.arcRaised = make([]bool, m)
	}
	if len(s.changed) < n {
		s.changed = make([]bool, n)
		s.rebuild = make([]bool, n)
	}
	if cap(s.newStart) < n+1 {
		s.newStart = make([]int32, n+1)
	}
}

// TreeUpdate updates t — a valid tree for this Computer's graph under some
// previous weight setting — to the tree under w, where w differs from that
// setting exactly on the raised arcs (weight went up; Disabled counts as
// +inf) and the lowered arcs (weight went down, a repaired arc included).
// The result is bitwise-equal to Tree(dest, w, t). It returns the number of
// nodes whose distance it had to settle again.
func (c *Computer) TreeUpdate(w Weights, t *Tree, raised, lowered []graph.EdgeID) int {
	csr := c.csr
	s := &c.upd
	n := csr.NumNodes()
	s.ensure(n, csr.NumArcs())
	dist := t.Dist

	// Affected-set classification: a node's distance grows iff every arc of
	// its shortest-path DAG either was raised or leads to an affected node.
	// The DAG is acyclic, so that set is the one fixpoint of the rule, and a
	// worklist reaches it from the tails of the raised arcs: a node is
	// (re)tested when a node it may route through turns affected, and cList
	// is its own queue. The destination and unreachable nodes (empty Next)
	// are never affected. Every other node keeps a path of unraised DAG arcs,
	// so its old distance is still an upper bound on the new one.
	s.cList = s.cList[:0]
	test := func(u graph.NodeID) {
		run := t.Next(u)
		if s.changed[u] || len(run) == 0 {
			return
		}
		for _, a := range run {
			if !s.arcRaised[a] && !s.changed[csr.To[a]] {
				return
			}
		}
		s.changed[u] = true
		s.cList = append(s.cList, u)
	}
	for _, a := range raised {
		s.arcRaised[a] = true
	}
	for _, a := range raised {
		test(csr.From[a])
	}
	for i := 0; i < len(s.cList); i++ {
		f := s.cList[i]
		for _, u := range csr.InFrom[csr.InStart[f]:csr.InStart[f+1]] {
			test(u)
		}
	}
	for _, a := range raised {
		s.arcRaised[a] = false
	}

	// Seeds. Affected nodes restart from their surviving arcs into unaffected
	// territory; the tail of a lowered arc takes the arc's offer when it is
	// strictly shorter than its label. Every label is then an upper bound on
	// the new distance, and exactly the queued ones can still be too high.
	h := &c.hp
	h.reset()
	for _, f := range s.cList {
		dist[f] = unreachable
	}
	for _, f := range s.cList {
		best := int32(unreachable)
		lo, hi := csr.OutStart[f], csr.OutStart[f+1]
		for i := lo; i < hi; i++ {
			id := csr.OutArcs[i]
			if w[id] == Disabled {
				continue
			}
			v := csr.OutTo[i]
			if s.changed[v] {
				continue // evolving; reached via relaxation below
			}
			if dv := dist[v]; dv != unreachable && dv+int32(w[id]) < best {
				best = dv + int32(w[id])
			}
		}
		if best != unreachable {
			dist[f] = best
			h.push(f, best)
		}
	}
	for _, a := range lowered {
		u := csr.From[a]
		if dv := dist[csr.To[a]]; dv != unreachable && dv+int32(w[a]) < dist[u] {
			dist[u] = dv + int32(w[a])
			h.push(u, dist[u])
		}
	}
	s.settled = s.settled[:0]
	s.orderMoved = len(s.cList) > 0 || h.len() > 0
	if s.orderMoved {
		c.resettle(w, t, s)
	}

	// Rebuild set: changed nodes, their in-neighbours (whose Next may gain or
	// lose arcs as the distance below them moves), and the tails of all
	// changed arcs (whose Next lose a raised arc or gain a lowered one that
	// now ties).
	s.rList = s.rList[:0]
	mark := func(u graph.NodeID) {
		if !s.rebuild[u] {
			s.rebuild[u] = true
			s.rList = append(s.rList, u)
		}
	}
	for _, f := range s.cList {
		mark(f)
		lo, hi := csr.InStart[f], csr.InStart[f+1]
		for i := lo; i < hi; i++ {
			mark(csr.InFrom[i])
		}
	}
	for _, a := range raised {
		mark(csr.From[a])
	}
	for _, a := range lowered {
		mark(csr.From[a])
	}

	// Rebuild the flat ECMP DAG: rebuild-set nodes rescan their out-arcs
	// through nextRun, the per-node step of the full build. Nodes outside the
	// rebuild set keep their runs verbatim: a changed run length shifts every
	// downstream offset, so the flat layout cannot patch in place, but maximal
	// spans of consecutive kept nodes are moved with a single copy and an
	// offset shift, making the compaction one memmove per rebuild-set boundary
	// plus an O(n) integer pass — not per-node slice work. The old arrays
	// stay behind in the double buffer (see updateScratch).
	newStart := s.newStart[:n+1]
	newArcs := s.newArcs[:0]
	oldStart, oldArcs := t.NextStart, t.NextArcs
	for u := 0; u < n; {
		if !s.rebuild[u] {
			v := u + 1
			for v < n && !s.rebuild[v] {
				v++
			}
			delta := int32(len(newArcs)) - oldStart[u]
			for x := u; x < v; x++ {
				newStart[x] = oldStart[x] + delta
			}
			newArcs = append(newArcs, oldArcs[oldStart[u]:oldStart[v]]...)
			u = v
			continue
		}
		newStart[u] = int32(len(newArcs))
		k := c.nextRun(w, dist, graph.NodeID(u), c.stage, 0)
		newArcs = append(newArcs, c.stage[:k]...)
		u++
	}
	newStart[n] = int32(len(newArcs))
	s.newStart = oldStart
	s.newArcs = oldArcs
	t.NextStart = newStart
	t.NextArcs = newArcs

	for _, u := range s.rList {
		s.rebuild[u] = false
	}
	for _, u := range s.cList {
		s.changed[u] = false
	}
	return len(s.settled)
}

// resettle runs the Dijkstra over the seeded labels. The seed distances span
// the whole distance range (not one arc weight), so this always uses the
// indexed heap rather than the bucket ring. Every in-arc of a popped node is
// relaxed: a node whose label drops joins the changed set when it pops in
// turn. Afterwards the canonical Order is rebuilt by merging the surviving
// (still sorted) run with the re-settled nodes; queue.go argues why the pop
// order is final and canonical.
func (c *Computer) resettle(w Weights, t *Tree, s *updateScratch) {
	csr := c.csr
	h := &c.hp
	dist := t.Dist
	for h.len() > 0 {
		u, du := h.pop()
		s.settled = append(s.settled, u)
		if !s.changed[u] {
			s.changed[u] = true
			s.cList = append(s.cList, u)
		}
		lo, hi := csr.InStart[u], csr.InStart[u+1]
		for i := lo; i < hi; i++ {
			v := csr.InFrom[i]
			if alt := int64(du) + int64(w[csr.InArcs[i]]); alt < int64(dist[v]) {
				dist[v] = int32(alt)
				h.push(v, int32(alt))
			}
		}
	}

	// Merge: the old Order minus changed nodes is still sorted by (Dist, ID)
	// — those distances did not move — and the heap popped the settled run
	// in the same order, so one linear merge restores the canonical Order.
	s.newOrder = s.newOrder[:0]
	si := 0
	for _, u := range t.Order {
		if s.changed[u] {
			continue
		}
		du := dist[u]
		for si < len(s.settled) {
			f := s.settled[si]
			df := dist[f]
			if df < du || (df == du && f < u) {
				s.newOrder = append(s.newOrder, f)
				si++
			} else {
				break
			}
		}
		s.newOrder = append(s.newOrder, u)
	}
	s.newOrder = append(s.newOrder, s.settled[si:]...)
	t.Order, s.newOrder = s.newOrder, t.Order
}
