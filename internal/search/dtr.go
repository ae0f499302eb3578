package search

import (
	"cmp"
	"fmt"
	"slices"

	"dualtopo/internal/cost"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// DTRResult is the outcome of the Algorithm 1 search.
type DTRResult struct {
	// WH and WL are the best dual-topology weight settings found.
	WH, WL spf.Weights
	// Result is the full evaluation of (WH, WL).
	Result *eval.Result
	// Best is Result's lexicographic objective.
	Best cost.Lex
	// Evaluations counts objective evaluations performed.
	Evaluations int64
	// DeltaEvals counts candidates, each scored as a what-if on a routing
	// state; FullEvals the rest: incumbent evaluations (refreshes, accepts).
	DeltaEvals, FullEvals int64
	// Pruned counts candidates discarded by the routing-invariance bound
	// before any evaluation (Params.Prune).
	Pruned int64
	// Robust carries the failure-aware score of (WH, WL) when the search ran
	// with Params.Robust configured; nil otherwise.
	Robust *RobustScore
}

// DTR runs Algorithm 1 from unit initial weights.
func DTR(e *eval.Evaluator, p Params) (*DTRResult, error) {
	n := e.Graph().NumEdges()
	return DTRFrom(e, spf.Uniform(n), spf.Uniform(n), p)
}

// DTRFrom runs Algorithm 1 from the given initial weight setting W0 =
// {wH0, wL0}. The inputs are not modified.
func DTRFrom(e *eval.Evaluator, wH0, wL0 spf.Weights, p Params) (*DTRResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := e.Graph()
	if err := wH0.Validate(g); err != nil {
		return nil, fmt.Errorf("search: initial WH: %w", err)
	}
	if err := wL0.Validate(g); err != nil {
		return nil, fmt.Errorf("search: initial WL: %w", err)
	}
	defer e.ResetDelta() // see newLocalSearch
	s, err := newDTRSearch(e, wH0, wL0, p)
	if err != nil {
		return nil, err
	}
	const h, l = eval.High, eval.Low

	// Routine 1 (lines 3-12): optimize WH with WL held at its initial value.
	s.runRoutine(1, "findH", p.N, func() bool { return s.stepClass(h) }, func() error {
		s.noteChange(h, s.perturb(s.w[h], p.G1))
		return s.refreshFull()
	})

	// Routine 2 (lines 13-24): fix WH at the best found, optimize WL.
	s.adoptBest()
	if err := s.refreshFull(); err != nil {
		return nil, err
	}
	s.runRoutine(2, "findL", p.N, func() bool { return s.stepClass(l) }, func() error {
		s.noteChange(l, s.perturb(s.w[l], p.G2))
		return s.refreshFull()
	})

	// Routine 3 (lines 25-38): joint refinement around W*.
	s.adoptBest()
	if err := s.refreshFull(); err != nil {
		return nil, err
	}
	s.runRoutine(3, "refine", p.K, s.stepRefine, func() error {
		s.adoptBest()
		s.noteChange(h, s.perturb(s.w[h], p.G3))
		s.noteChange(l, s.perturb(s.w[l], p.G3))
		return s.refreshFull()
	})

	if s.err != nil {
		return nil, s.err
	}
	s.parallelRouting(true)
	best, err := e.EvaluateDTR(s.best[h], s.best[l])
	s.parallelRouting(false)
	if err != nil {
		return nil, err
	}
	res := &DTRResult{
		WH:          s.best[h],
		WL:          s.best[l],
		Result:      best,
		Best:        best.Objective(),
		Evaluations: s.evals,
		DeltaEvals:  s.deltaEvals,
		FullEvals:   s.fullEvals,
		Pruned:      s.pruned,
	}
	if s.robust() {
		if res.Robust, err = s.finalRobust(best.PhiL); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func newDTRSearch(e *eval.Evaluator, wH0, wL0 spf.Weights, p Params) (*localSearch, error) {
	n := e.Graph().NumEdges()
	max := n - p.Neighbors + 1
	if max < 1 {
		return nil, fmt.Errorf("search: neighborhood size m=%d exceeds %d arcs", p.Neighbors, n)
	}
	s := newLocalSearch(e, p, wH0, wL0)
	s.shape = eval.RouteDTR
	s.sampler = newRankSampler(max, p.Tau)
	s.order = make([]graph.EdgeID, n)
	if p.Robust.enabled() {
		if err := s.initRobust(wH0, wL0); err != nil {
			return nil, err
		}
	}
	if err := s.refreshFull(); err != nil {
		return nil, err
	}
	s.bestLex = s.curLex
	s.bestRob = s.curRob
	return s, nil
}

// refreshFull re-evaluates the current solution from scratch, including its
// robust penalty when failure-aware scoring is on. The primary routing state
// routes from scratch on the Params.RouteWorkers pool.
func (s *localSearch) refreshFull() error {
	s.e.State(eval.RouteDTR).Reset()
	s.parallelRouting(true)
	err := s.evalIncumbent()
	s.parallelRouting(false)
	if err == nil && s.robust() {
		s.curRob, err = s.robustTerm(0, s.w[eval.High], s.w[eval.Low])
	}
	return err
}

// evalIncumbent evaluates the incumbent into s.cur, bitwise the full
// evaluation, off the primary routing state (worker 0's), which the
// incumbent lives in — resynced incrementally after an accept, from scratch
// after a Reset.
func (s *localSearch) evalIncumbent() error {
	if err := s.resync(0); err != nil {
		return err
	}
	s.e.State(eval.RouteDTR).ResultInto(&s.cur)
	s.evals++
	s.fullEvals++
	searchMet.evalsFull.Inc()
	s.curLex = s.cur.Objective()
	s.attrFresh = false
	return nil
}

// stepClass performs one FindH (c = eval.High) or FindL (c = eval.Low)
// move; reports whether the best-known solution improved. Per Algorithm 1
// routine 2, FindL updates the incumbent on any ΦL improvement (the primary
// cost cannot move while WH is fixed).
func (s *localSearch) stepClass(c int) bool {
	return s.findClass(c) && s.improveBest()
}

// stepRefine performs the routine-3 composite move: FindH then FindL.
func (s *localSearch) stepRefine() bool {
	if s.findClass(eval.High); s.err == nil {
		s.findClass(eval.Low)
	}
	return s.err == nil && s.improveBest()
}

// improveBest records the incumbent as the best-known solution if it beats
// it under the active objective (composite when robust scoring is on).
func (s *localSearch) improveBest() bool {
	if !s.composite(s.curLex, s.curRob).Less(s.composite(s.bestLex, s.bestRob)) {
		return false
	}
	copy(s.best[eval.High], s.w[eval.High])
	copy(s.best[eval.Low], s.w[eval.Low])
	s.bestLex = s.curLex
	s.bestRob = s.curRob
	return true
}

// adoptBest moves the incumbent weights to the best-known setting, recording
// the arc diffs so worker scratch vectors and routers resync lazily on their
// next candidate.
func (s *localSearch) adoptBest() {
	for c := range s.w {
		s.noteChange(c, spf.DiffArcs(s.w[c], s.best[c], nil))
		copy(s.w[c], s.best[c])
	}
}

// findClass runs Algorithm 2 on the weights of class c: rank the links,
// build the neighborhood of moves, drop the provably routing-invariant
// ones, score the rest, and accept the best if it improves the incumbent
// under the (composite) lexicographic objective. FindL candidates carry the
// incumbent's primary unchanged, so for them the comparison is on ΦL alone.
// An accept applies the winning move to the primary routing state and reads
// the new incumbent off it. Reports whether a move was accepted.
func (s *localSearch) findClass(c int) bool {
	if s.err = s.resync(0); s.err != nil { // a failure sweep may have moved it
		return false
	}
	guided := s.useGuided()
	s.rankLinks(c, guided)
	moves := s.pruneMoves(c, s.buildNeighbors(c, guided))
	if len(moves) == 0 {
		return false
	}
	// robustAdd[i] is candidate i's failure penalty, 0 unless robust.
	s.robustAdd = append(s.robustAdd[:0], make([]float64, len(moves))...)
	lexes := s.evalCandidates(c, moves, func(wk, _ int, w spf.Weights, changed []graph.EdgeID) (cost.Lex, error) {
		return s.score(c, wk, w, changed)
	})
	if s.err != nil {
		return false
	}
	bestIdx := -1
	bestComp := s.composite(s.curLex, s.curRob)
	for i, lx := range lexes {
		if comp := s.composite(lx, s.robustAdd[i]); comp.Less(bestComp) {
			bestComp = comp
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return false
	}
	moves[bestIdx].apply(s.w[c])
	s.curRob = s.robustAdd[bestIdx]
	s.noteChange(c, moves[bestIdx].appendArcs(nil))
	if s.err = s.evalIncumbent(); s.err != nil {
		return false
	}
	s.tally.accepted = true
	if s.p.VerifyDelta {
		what := [2]string{"FindH accept", "FindL accept"}[c]
		s.err = verifyScore(s.e, eval.RouteDTR, s.w, what, lexes[bestIdx], (*eval.Result).Objective)
	}
	return s.err == nil
}

// score moves class c of worker wk's routing state, which sits at the
// incumbent, to the candidate weights w and reads the candidate's objective
// off it: FindH's ⟨ΦH, ΦL⟩ (⟨Λ, ΦL⟩ on SLA instances), FindL's ΦL under the
// incumbent's unchanged primary. Under VerifyDelta the state and the score
// are checked against a from-scratch evaluation on the worker's plans.
func (s *localSearch) score(c, wk int, w spf.Weights, changed []graph.EdgeID) (cost.Lex, error) {
	e, st, ws := s.pool[wk], s.pool[wk].State(eval.RouteDTR), s.w
	ws[c] = w // the other class's router already sits at s.w
	if _, err := st.Apply(ws, changed); err != nil {
		return cost.Lex{}, err
	}
	lex := cost.Lex{Primary: s.curLex.Primary, Secondary: st.PhiL()}
	switch {
	case c == eval.Low:
	case e.Options().Kind == eval.SLABased:
		lex.Primary, _, _ = st.Penalties()
	default:
		lex.Primary = st.PhiH()
	}
	if s.p.VerifyDelta {
		what := [2]string{"FindH candidate", "FindL candidate"}[c]
		return lex, verifyScore(e, eval.RouteDTR, ws, what, lex, (*eval.Result).Objective)
	}
	return lex, nil
}

// rankLinks fills s.order with all arcs in decreasing cost order for class
// c, ties broken by ascending arc ID (a stable sort over the identity
// ordering). FindH ranks by ⟨ΦH,l, ΦL,l⟩ (⟨Dl, ΦL,l⟩ for SLA), FindL by ΦL,l
// only — WL has no effect on the high-priority class. Guided steps rank by
// the incumbent's arc attribution instead (see guided.go).
func (s *localSearch) rankLinks(c int, guided bool) {
	for i := range s.order {
		s.order[i] = graph.EdgeID(i)
	}
	if c == eval.High && !guided {
		slices.SortStableFunc(s.order, func(a, b graph.EdgeID) int {
			return s.cur.LinkCost(b).Compare(s.cur.LinkCost(a))
		})
		return
	}
	score := s.cur.LinkPhiL
	if guided {
		s.ensureAttr()
		score = s.attr.HScore
		if c == eval.Low {
			score = s.attr.LScore
		}
	}
	slices.SortStableFunc(s.order, func(a, b graph.EdgeID) int {
		return cmp.Compare(score[b], score[a])
	})
}

// buildNeighbors implements Algorithm 2 lines 2-5 on the weights of class
// c: draw k1 and k2 from the heavy-tail rank distribution, slice the m-link
// sets A (high cost, weights to increase) and B (low cost, weights to
// decrease), and pair them without replacement into up to m moves. Guided
// steps differ only in s.order (attribution-sorted instead of cost-sorted);
// the rank draws, pairing, and clamping rules are shared, so guided
// candidates stay legal Algorithm 2 moves and consume the same rng stream.
func (s *localSearch) buildNeighbors(c int, guided bool) []move {
	n := len(s.order)
	m := s.p.Neighbors
	if guided {
		searchMet.candGuided.Inc()
	}
	k1 := s.sampler.sample(s.rng.Rand)
	k2 := s.sampler.sample(s.rng.Rand)
	s.aSet = append(s.aSet[:0], s.order[k1-1:k1-1+m]...)
	s.bSet = append(s.bSet[:0], s.order[n+1-k2-m:n-k2+1]...)
	s.rng.shuffleEdges(s.aSet)
	s.rng.shuffleEdges(s.bSet)

	s.moves = s.moves[:0]
	for j := 0; j < m; j++ {
		up, down := s.aSet[j], s.bSet[j]
		if up == down {
			continue
		}
		if mv, ok := newMove(s.w[c], up, down, s.p.Step, s.p.WMax); ok {
			s.moves = append(s.moves, mv)
		}
	}
	searchMet.candGenerated.Add(int64(len(s.moves)))
	return s.moves
}
