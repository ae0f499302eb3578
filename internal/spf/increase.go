package spf

import "dualtopo/internal/graph"

// Partial SPF for pure weight increases (the failure-sweep hot path: a
// disabled arc is a weight increase to +inf). When every changed arc's
// weight went up, distances can only grow, and they grow only for nodes
// whose every shortest path used a changed arc. TreeIncrease classifies that
// affected set in one linear pass over the stored tree, re-settles only the
// affected nodes with a boundary Dijkstra, and rebuilds the ECMP structure
// only where it can have moved. Because integer shortest distances are
// unique and Next/Order are pure functions of the distance vector, the
// updated tree is bitwise-identical to a from-scratch recomputation.

// increaseScratch holds TreeIncrease's reusable buffers.
type increaseScratch struct {
	arcChanged []bool // per arc: weight increased this transition
	affected   []bool // per node: every shortest path destroyed
	rebuild    []bool // per node: Next run must be rebuilt
	fList      []graph.NodeID
	rList      []graph.NodeID
	newOrder   []graph.NodeID
	settled    []graph.NodeID
	// newStart/newArcs double-buffer the flat ECMP rebuild; they swap with
	// the tree's own arrays each call, so the rebuild is allocation-free
	// once warm.
	newStart []int32
	newArcs  []graph.EdgeID
}

func (s *increaseScratch) ensure(n, m int) {
	if len(s.arcChanged) < m {
		s.arcChanged = make([]bool, m)
	}
	if len(s.affected) < n {
		s.affected = make([]bool, n)
		s.rebuild = make([]bool, n)
	}
	if cap(s.newStart) < n+1 {
		s.newStart = make([]int32, n+1)
	}
}

// TreeIncrease updates t — a valid tree for this Computer's graph under some
// previous weight setting — to the tree under w, where w differs from that
// setting only on the changed arcs and every change is an increase (Disabled
// counts as +inf). The result is bitwise-equal to Tree(dest, w, t).
func (c *Computer) TreeIncrease(w Weights, t *Tree, changed []graph.EdgeID) {
	csr := c.csr
	s := &c.inc
	n := csr.NumNodes()
	s.ensure(n, csr.NumArcs())
	for _, a := range changed {
		s.arcChanged[a] = true
	}

	// Affected-set classification: a node's distance grows iff every arc of
	// its shortest-path DAG either increased or leads to an affected node.
	// Next arcs point strictly downhill (weights are >= 1), so one ascending
	// pass over the canonical Order classifies successors first. The
	// destination (empty Next) is never affected.
	s.fList = s.fList[:0]
	for _, u := range t.Order {
		if u == t.Dest {
			continue
		}
		aff := true
		for _, a := range t.Next(u) {
			if !s.arcChanged[a] && !s.affected[csr.To[a]] {
				aff = false
				break
			}
		}
		if aff {
			s.affected[u] = true
			s.fList = append(s.fList, u)
		}
	}

	// Rebuild set: affected nodes, their DAG-upstream neighbors (whose Next
	// may gain or lose arcs as affected distances move), and the tails of
	// changed arcs (whose Next lose the increased arcs).
	s.rList = s.rList[:0]
	mark := func(u graph.NodeID) {
		if !s.rebuild[u] {
			s.rebuild[u] = true
			s.rList = append(s.rList, u)
		}
	}
	for _, f := range s.fList {
		mark(f)
		lo, hi := csr.InStart[f], csr.InStart[f+1]
		for i := lo; i < hi; i++ {
			mark(csr.InFrom[i])
		}
	}
	for _, a := range changed {
		mark(csr.From[a])
	}

	if len(s.fList) > 0 {
		c.resettleAffected(w, t, s)
	}

	// Rebuild the flat ECMP DAG: rebuild-set nodes rescan their out-arcs
	// through nextRun, the per-node step of the full build. Nodes outside the
	// rebuild set keep their runs verbatim: a changed run length shifts every
	// downstream offset, so the flat layout cannot patch in place, but maximal
	// spans of consecutive kept nodes are moved with a single copy and an
	// offset shift, making the compaction one memmove per rebuild-set boundary
	// plus an O(n) integer pass — not per-node slice work. (Checkpointed
	// sweeps already pay this order per dirty destination in saveDest; what
	// the flat layout buys back is zero-alloc contiguous iteration on every
	// hot pass.)
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
		k := c.nextRun(w, t.Dist, graph.NodeID(u), c.stage, 0)
		newArcs = append(newArcs, c.stage[:k]...)
		u++
	}
	newStart[n] = int32(len(newArcs))
	s.newStart = oldStart
	s.newArcs = oldArcs
	t.NextStart = newStart
	t.NextArcs = newArcs

	for _, a := range changed {
		s.arcChanged[a] = false
	}
	for _, u := range s.rList {
		s.rebuild[u] = false
	}
	for _, u := range s.fList {
		s.affected[u] = false
	}
}

// resettleAffected runs the boundary Dijkstra: affected nodes are seeded
// from their surviving arcs into unaffected territory, then settle among
// themselves; everything else keeps its distance. The seed distances span
// the whole distance range (not one arc weight), so this path always uses
// the indexed heap rather than the bucket ring. Afterwards the canonical
// Order is rebuilt by merging the surviving (still sorted) run with the
// re-settled nodes.
func (c *Computer) resettleAffected(w Weights, t *Tree, s *increaseScratch) {
	csr := c.csr
	h := &c.hp
	h.reset()
	for _, f := range s.fList {
		t.Dist[f] = unreachable
	}
	for _, f := range s.fList {
		best := int32(unreachable)
		lo, hi := csr.OutStart[f], csr.OutStart[f+1]
		for i := lo; i < hi; i++ {
			id := csr.OutArcs[i]
			if w[id] == Disabled {
				continue
			}
			v := csr.OutTo[i]
			if s.affected[v] {
				continue // evolving; reached via relaxation below
			}
			if dv := t.Dist[v]; dv != unreachable && dv+int32(w[id]) < best {
				best = dv + int32(w[id])
			}
		}
		if best != unreachable {
			t.Dist[f] = best
			h.push(f, best)
		}
	}
	s.settled = s.settled[:0]
	for h.len() > 0 {
		u, du := h.pop()
		s.settled = append(s.settled, u)
		lo, hi := csr.InStart[u], csr.InStart[u+1]
		for i := lo; i < hi; i++ {
			id := csr.InArcs[i]
			if w[id] == Disabled {
				continue
			}
			v := csr.InFrom[i]
			if !s.affected[v] {
				continue // unaffected distances are already optimal
			}
			if alt := du + int32(w[id]); alt < t.Dist[v] {
				t.Dist[v] = alt
				h.push(v, alt)
			}
		}
	}

	// Merge: the old Order minus affected nodes is still sorted by
	// (Dist, ID) — those distances did not move — and the heap popped the
	// settled run in the same order, so one linear merge restores the
	// canonical Order.
	s.newOrder = s.newOrder[:0]
	si := 0
	for _, u := range t.Order {
		if s.affected[u] {
			continue
		}
		du := t.Dist[u]
		for si < len(s.settled) {
			f := s.settled[si]
			df := t.Dist[f]
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
	t.Order = append(t.Order[:0], s.newOrder...)
}
