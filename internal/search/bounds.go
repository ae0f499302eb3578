package search

import "dualtopo/internal/eval"

// Routing-invariance bound: a candidate whose changed arcs provably leave
// every shortest-path DAG of the class being re-routed intact routes — and
// therefore scores — bitwise-identically to the incumbent. The search only
// accepts strict improvements, so such a candidate can never be selected and
// its evaluation is pure waste.
//
// The per-arc test against the incumbent's destination trees is
// spf.DeltaRouter.ArcInvariant, the rule the router's Apply dirties trees
// with, O(1) per tree: for an arc a = (u, v) with incumbent weight w and
// candidate weight w', and tree distances du = Dist[u], dv = Dist[v] (toward
// one destination), the arc can influence that tree only if
//
//	du == w + dv            (a is on the ECMP DAG and its weight moves), or
//	w' < w && du >= w' + dv (the decrease creates a path at least as good).
//
// If neither holds for any (changed arc, destination) pair, an induction
// over the changed arcs shows all distances — and hence every DAG — are
// unchanged: an increase on a non-tight arc keeps it non-tight, and a
// decrease that stays strictly above du - dv never becomes competitive, so
// no shortest distance can move and no DAG membership can flip. Identical
// DAGs mean identical loads, identical per-arc costs summed in the same
// order, and an objective bitwise-equal to the incumbent's (pinned by
// TestPruneBoundSoundness).
//
// The bound reads the incumbent's trees off the primary routing state's
// routers, which sit at the incumbent between candidates. It is never
// consulted under Robust scoring, where failure states re-route under
// candidate weights and intact-invariance says nothing about the sweep.

// pruneOn reports whether the routing-invariance prune is active.
func (s *localSearch) pruneOn() bool { return s.p.Prune && !s.robust() }

// pruneMoves drops the provably routing-invariant moves of class c,
// reading each moved arc's new weight from the move itself, and counts what
// it discarded. The filter consumes no randomness and touches no evaluator
// or pending state, so the surviving trajectory is identical to the
// unpruned one.
func (s *localSearch) pruneMoves(c int, moves []move) []move {
	if !s.pruneOn() || len(moves) == 0 {
		return moves
	}
	trees := s.e.State(eval.RouteDTR).Router(c)
	w := s.w[c]
	kept := moves[:0]
	for _, mv := range moves {
		if trees.ArcInvariant(mv.up, w[mv.up], mv.wUp) && trees.ArcInvariant(mv.down, w[mv.down], mv.wDown) {
			s.tally.pruned++
			continue
		}
		kept = append(kept, mv)
	}
	if n := len(moves) - len(kept); n > 0 {
		s.pruned += int64(n)
		searchMet.candPruned.Add(int64(n))
		if gen := searchMet.candGenerated.Value(); gen > 0 {
			searchMet.pruneRate.Set(float64(searchMet.candPruned.Value()) / float64(gen))
		}
	}
	return kept
}
