package search

import (
	"fmt"
	"slices"
	"sync"

	"dualtopo/internal/cost"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/resilience"
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
	// DeltaEvals and FullEvals split Evaluations between the incremental
	// candidate paths and from-scratch evaluations.
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
	s, err := newDTRSearch(e, wH0, wL0, p)
	if err != nil {
		return nil, err
	}

	// Routine 1 (lines 3-12): optimize WH with WL held at its initial value.
	s.runRoutine(1, "findH", p.N, s.stepFindH, func() { s.noteHChange(s.perturb(s.wH, p.G1)) })

	// Routine 2 (lines 13-24): fix WH at the best found, optimize WL.
	s.adoptBest()
	if err := s.refreshFull(); err != nil {
		return nil, err
	}
	s.runRoutine(2, "findL", p.N, s.stepFindL, func() { s.noteLChange(s.perturb(s.wL, p.G2)) })

	// Routine 3 (lines 25-38): joint refinement around W*.
	s.adoptBest()
	if err := s.refreshFull(); err != nil {
		return nil, err
	}
	s.runRoutine(3, "refine", p.K, s.stepRefine, func() {
		s.adoptBest()
		s.noteHChange(s.perturb(s.wH, p.G3))
		s.noteLChange(s.perturb(s.wL, p.G3))
	})

	if s.err != nil {
		return nil, s.err
	}
	s.parallelRouting(true)
	best, err := e.EvaluateDTR(s.bestWH, s.bestWL)
	s.parallelRouting(false)
	if err != nil {
		return nil, err
	}
	res := &DTRResult{
		WH:          s.bestWH,
		WL:          s.bestWL,
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

// dtrSearch carries the mutable state of one Algorithm 1 run.
type dtrSearch struct {
	e   *eval.Evaluator
	p   Params
	rng *rng
	// sampler covers ranks [1, n-m+1] per Algorithm 2.
	sampler *rankSampler

	wH, wL spf.Weights
	cur    *eval.Result
	curLex cost.Lex

	bestWH, bestWL spf.Weights
	bestLex        cost.Lex

	order []graph.EdgeID // scratch: links sorted by decreasing cost
	aSet  []graph.EdgeID // scratch: high-cost picks
	bSet  []graph.EdgeID // scratch: low-cost picks

	// candArcs[i] lists the arcs on which candidate i differs from the
	// incumbent weights — the changed set threaded into the delta paths.
	candArcs [][2]graph.EdgeID

	// hPending[wk]/lPending[wk] conservatively list the arcs on which
	// worker wk's incremental router may differ from the incumbent wH/wL:
	// the worker's last-evaluated candidate, plus every incumbent move
	// (accept, perturbation, routine transition) since. The next delta
	// evaluation passes pending ∪ candidate arcs as its changed set, then
	// resets pending to the candidate's arcs.
	hPending, lPending [][]graph.EdgeID
	mergeBuf           [][]graph.EdgeID

	pool  []*eval.Evaluator // per-worker evaluators; pool[0] == e
	evals int64
	// deltaEvals/fullEvals split evals between the incremental candidate
	// paths and from-scratch evaluations — the ratio the trajectory trace
	// reports. Both are updated only from the coordinating goroutine, so
	// they are deterministic.
	deltaEvals, fullEvals int64
	// stepCands/stepPruned/stepAccepted describe the current step for the
	// trace: how many candidates were evaluated, how many the bound pruned,
	// and whether a move was accepted.
	stepCands    int
	stepPruned   int
	stepAccepted bool
	err          error

	// Guided-generation state: the incumbent's cached arc attribution
	// (refreshed lazily on the first guided step after an incumbent move)
	// and the candidate-pipeline tallies behind DTRResult.Pruned.
	attr      eval.Attribution
	attrFresh bool
	generated int64
	pruned    int64

	// Failure-aware scoring state (see robust.go): per-worker sweep engines,
	// the filtered failure set, per-candidate penalties, and the additive
	// penalties of the incumbent and best solutions.
	sweep           []*resilience.Sweeper
	rStates         []resilience.State
	robustAdd       []float64
	curRob, bestRob float64
}

func newDTRSearch(e *eval.Evaluator, wH0, wL0 spf.Weights, p Params) (*dtrSearch, error) {
	n := e.Graph().NumEdges()
	max := n - p.Neighbors + 1
	if max < 1 {
		return nil, fmt.Errorf("search: neighborhood size m=%d exceeds %d arcs", p.Neighbors, n)
	}
	s := &dtrSearch{
		e:       e,
		p:       p,
		rng:     newRNG(p.Seed),
		sampler: newRankSampler(max, p.Tau),
		wH:      wH0.Clone(),
		wL:      wL0.Clone(),
		order:   make([]graph.EdgeID, n),
	}
	workers := p.workers()
	if workers > p.Neighbors {
		workers = p.Neighbors
	}
	e.ResetDelta() // a reused evaluator must not leak a prior run's router position
	s.pool = make([]*eval.Evaluator, workers)
	s.pool[0] = e
	if p.FullEval {
		// In full-evaluation mode candidate scoring routes the evaluator's
		// plans at candidate weights; give worker 0 a clone so s.e's plans
		// stay anchored at the incumbent (delta mode already has this: the
		// delta paths route separate incremental routers). The anchor is
		// what the routing-invariance prune and the guided attribution
		// consult, so both modes see identical trees and make identical
		// decisions — keeping delta and full trajectories bitwise-equal.
		s.pool[0] = e.Clone()
	}
	for i := 1; i < workers; i++ {
		s.pool[i] = e.Clone()
	}
	s.hPending = make([][]graph.EdgeID, workers)
	s.lPending = make([][]graph.EdgeID, workers)
	s.mergeBuf = make([][]graph.EdgeID, workers)
	if p.Robust.enabled() {
		if err := s.initRobust(wH0, wL0); err != nil {
			return nil, err
		}
	}
	if err := s.refreshFull(); err != nil {
		return nil, err
	}
	s.bestWH = s.wH.Clone()
	s.bestWL = s.wL.Clone()
	s.bestLex = s.curLex
	s.bestRob = s.curRob
	return s, nil
}

// parallelRouting toggles the parallel full-route on the primary evaluator.
// It is scoped to the search's single-threaded phases (full refreshes, the
// final evaluation): during candidate evaluation the pool's goroutines are
// the parallelism, and s.e is pool[0], so it must route sequentially there.
func (s *dtrSearch) parallelRouting(on bool) {
	if s.p.RouteWorkers != 1 {
		w := 1
		if on {
			w = s.p.RouteWorkers // 0 = block-aware auto
		}
		s.e.SetRouteWorkers(w)
	}
}

// refreshFull re-evaluates the current solution from scratch, including its
// robust penalty when failure-aware scoring is on.
func (s *dtrSearch) refreshFull() error {
	s.parallelRouting(true)
	r, err := s.e.EvaluateDTR(s.wH, s.wL)
	s.parallelRouting(false)
	if err != nil {
		return err
	}
	s.evals++
	s.fullEvals++
	searchMet.evalsFull.Inc()
	s.cur = r
	s.curLex = r.Objective()
	s.attrFresh = false
	if s.robust() {
		if s.curRob, err = s.robustTerm(0, s.wH, s.wL); err != nil {
			return err
		}
	}
	return nil
}

// runRoutine executes one of Algorithm 1's three while-loops: step is the
// per-iteration move (FindH, FindL, or both), diversify is the escape
// action taken after M iterations without improving the incumbent. Every
// iteration (and every diversification) emits one trace event.
func (s *dtrSearch) runRoutine(routine int, kind string, iterations int, step func() bool, diversify func()) {
	if s.err != nil {
		return
	}
	iters := iterCounter(kind)
	sinceImprove := 0
	for iter := 0; iter < iterations; iter++ {
		s.stepCands = 0
		s.stepPruned = 0
		s.stepAccepted = false
		improvedBest := step()
		if s.err != nil {
			return
		}
		iters.Inc()
		if s.stepAccepted {
			searchMet.accepts.Inc()
		}
		s.emit(routine, iter, kind, improvedBest)
		if improvedBest {
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if sinceImprove >= s.p.M {
			diversify()
			if err := s.refreshFull(); err != nil {
				s.err = err
				return
			}
			searchMet.perturbs.Inc()
			s.stepCands = 0
			s.stepPruned = 0
			s.stepAccepted = false
			s.emit(routine, iter, "perturb", false)
			sinceImprove = 0
		}
	}
}

// emit delivers one trace event to the OnEvent hook. Called only from the
// coordinating goroutine, after the step's state is final.
func (s *dtrSearch) emit(routine, iter int, kind string, improved bool) {
	if s.p.OnEvent == nil {
		return
	}
	s.p.OnEvent(TraceEvent{
		Routine:     routine,
		Iter:        iter,
		Kind:        kind,
		Accepted:    s.stepAccepted,
		Improved:    improved,
		Candidates:  s.stepCands,
		Pruned:      s.stepPruned,
		PhiH:        s.cur.PhiH,
		PhiL:        s.cur.PhiL,
		BestPrimary: s.bestLex.Primary,
		BestPhiL:    s.bestLex.Secondary,
		DeltaEvals:  s.deltaEvals,
		FullEvals:   s.fullEvals,
	})
}

// betterThanBest compares the incumbent against the best-known solution
// under the active objective (composite when robust scoring is on).
func (s *dtrSearch) betterThanBest() bool {
	return s.composite(s.curLex, s.curRob).Less(s.composite(s.bestLex, s.bestRob))
}

// stepFindH performs one FindH move; reports whether the incumbent improved.
func (s *dtrSearch) stepFindH() bool {
	if s.findH() {
		if s.betterThanBest() {
			s.recordBest()
			return true
		}
	}
	return false
}

// stepFindL performs one FindL move. Per Algorithm 1 routine 2, the
// incumbent is updated on any ΦL improvement (the primary cost cannot move
// while WH is fixed).
func (s *dtrSearch) stepFindL() bool {
	if s.findL() {
		if s.betterThanBest() {
			s.recordBest()
			return true
		}
	}
	return false
}

// stepRefine performs the routine-3 composite move: FindH then FindL.
func (s *dtrSearch) stepRefine() bool {
	s.findH()
	if s.err != nil {
		return false
	}
	s.findL()
	if s.err != nil {
		return false
	}
	if s.betterThanBest() {
		s.recordBest()
		return true
	}
	return false
}

func (s *dtrSearch) recordBest() {
	copy(s.bestWH, s.wH)
	copy(s.bestWL, s.wL)
	s.bestLex = s.curLex
	s.bestRob = s.curRob
}

// adoptBest moves the incumbent weights to the best-known setting, recording
// the arc diffs so worker delta routers resync lazily on their next use.
func (s *dtrSearch) adoptBest() {
	if !s.p.FullEval {
		s.noteHChange(spf.DiffArcs(s.wH, s.bestWH, nil))
		s.noteLChange(spf.DiffArcs(s.wL, s.bestWL, nil))
	}
	copy(s.wH, s.bestWH)
	copy(s.wL, s.bestWL)
}

// noteHChange records that the incumbent wH moved on the given arcs: every
// worker's H-delta router is now stale there until its next evaluation.
func (s *dtrSearch) noteHChange(arcs []graph.EdgeID) {
	if !s.p.FullEval {
		notePending(s.hPending, arcs)
	}
}

// noteLChange is noteHChange for the incumbent wL.
func (s *dtrSearch) noteLChange(arcs []graph.EdgeID) {
	if !s.p.FullEval {
		notePending(s.lPending, arcs)
	}
}

// findH runs Algorithm 2 on the high-priority weights: build the
// neighborhood from the link-cost ranking (or, on guided steps, from the
// incumbent's arc attribution), drop the provably routing-invariant
// neighbors, evaluate the rest, and move if the best improves the current
// solution. Reports whether a move was accepted.
func (s *dtrSearch) findH() bool {
	guided := s.useGuided()
	if guided {
		s.ensureAttr()
		s.sortLinksGuided(s.attr.HScore)
	} else {
		s.sortLinks(func(id graph.EdgeID) cost.Lex { return s.cur.LinkCost(id) })
	}
	cands := s.buildNeighbors(s.wH, guided)
	cands = s.pruneCandidates(cands, s.e.HPlan(), s.wH)
	if len(cands) == 0 {
		return false
	}
	s.prepRobustAdd(len(cands))
	lexes := s.evalCandidates(cands, func(worker, idx int, w spf.Weights) (cost.Lex, error) {
		var lx cost.Lex
		var err error
		if s.p.FullEval {
			lx, err = s.pool[worker].ObjectiveH(w, s.cur.LLoads)
		} else {
			lx, err = s.pool[worker].ObjectiveHDelta(w, takePending(s.hPending, s.mergeBuf, worker, s.candArcs[idx][:]), s.cur.LLoads)
		}
		if err == nil && s.robust() {
			// A candidate whose primary objective is already worse than the
			// incumbent's can never be selected (the composite only touches
			// the secondary), so its failure sweep would be pure waste.
			if lx.Primary > s.curLex.Primary {
				s.robustAdd[idx] = 0
			} else {
				s.robustAdd[idx], err = s.robustTerm(worker, w, s.wL)
			}
		}
		return lx, err
	})
	if s.err != nil {
		return false
	}
	bestIdx := -1
	bestComp := s.composite(s.curLex, s.curRob)
	for i, lx := range lexes {
		if c := s.composite(lx, s.robAdd(i)); c.Less(bestComp) {
			bestComp = c
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return false
	}
	copy(s.wH, cands[bestIdx])
	if s.robust() {
		s.curRob = s.robustAdd[bestIdx]
	}
	s.noteHChange(s.candArcs[bestIdx][:])
	s.parallelRouting(true)
	r, err := s.e.EvaluateHWithLLoads(s.wH, s.cur.LLoads)
	s.parallelRouting(false)
	if err != nil {
		s.err = err
		return false
	}
	s.evals++
	s.fullEvals++
	searchMet.evalsFull.Inc()
	s.stepAccepted = true
	if s.p.VerifyDelta && !s.p.FullEval && lexes[bestIdx] != r.Objective() {
		s.err = fmt.Errorf("search: delta/full mismatch on FindH accept: delta %+v, full %+v",
			lexes[bestIdx], r.Objective())
		return false
	}
	s.cur = r
	s.curLex = r.Objective()
	s.attrFresh = false
	return true
}

// findL is FindH's twin on the low-priority weights, sorting links by ΦL,l
// only (WL has no effect on the high-priority class).
func (s *dtrSearch) findL() bool {
	guided := s.useGuided()
	if guided {
		s.ensureAttr()
		s.sortLinksGuided(s.attr.LScore)
	} else {
		s.sortLinks(func(id graph.EdgeID) cost.Lex {
			return cost.Lex{Primary: s.cur.LinkPhiL[id]}
		})
	}
	cands := s.buildNeighbors(s.wL, guided)
	cands = s.pruneCandidates(cands, s.e.LPlan(), s.wL)
	if len(cands) == 0 {
		return false
	}
	s.prepRobustAdd(len(cands))
	phiLs := make([]float64, len(cands))
	lexes := s.evalCandidates(cands, func(worker, idx int, w spf.Weights) (cost.Lex, error) {
		var phiL float64
		var err error
		if s.p.FullEval {
			phiL, err = s.pool[worker].ObjectiveL(w, s.cur.Residual)
		} else {
			phiL, err = s.pool[worker].ObjectiveLDelta(w, takePending(s.lPending, s.mergeBuf, worker, s.candArcs[idx][:]), s.cur.Residual)
		}
		if err == nil && s.robust() {
			s.robustAdd[idx], err = s.robustTerm(worker, s.wH, w)
		}
		return cost.Lex{Primary: s.curLex.Primary, Secondary: phiL}, err
	})
	if s.err != nil {
		return false
	}
	for i, lx := range lexes {
		phiLs[i] = lx.Secondary
	}
	bestIdx := -1
	bestPhiL := s.cur.PhiL + s.curRobIfOn()
	for i, phiL := range phiLs {
		if scored := phiL + s.robAdd(i); scored < bestPhiL {
			bestPhiL = scored
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return false
	}
	copy(s.wL, cands[bestIdx])
	if s.robust() {
		s.curRob = s.robustAdd[bestIdx]
	}
	s.noteLChange(s.candArcs[bestIdx][:])
	s.parallelRouting(true)
	r, err := s.e.EvaluateLWithBase(s.wL, s.cur)
	s.parallelRouting(false)
	if err != nil {
		s.err = err
		return false
	}
	s.evals++
	s.fullEvals++
	searchMet.evalsFull.Inc()
	s.stepAccepted = true
	if s.p.VerifyDelta && !s.p.FullEval && phiLs[bestIdx] != r.PhiL {
		s.err = fmt.Errorf("search: delta/full mismatch on FindL accept: delta ΦL %v, full %v",
			phiLs[bestIdx], r.PhiL)
		return false
	}
	s.cur = r
	s.curLex = r.Objective()
	s.attrFresh = false
	return true
}

// sortLinks fills s.order with all arcs in decreasing cost order.
func (s *dtrSearch) sortLinks(linkCost func(graph.EdgeID) cost.Lex) {
	for i := range s.order {
		s.order[i] = graph.EdgeID(i)
	}
	slices.SortStableFunc(s.order, func(a, b graph.EdgeID) int {
		return linkCost(b).Compare(linkCost(a))
	})
}

// buildNeighbors implements Algorithm 2 lines 2-5: draw k1 and k2 from the
// heavy-tail rank distribution, slice the m-link sets A (high cost, weights
// to increase) and B (low cost, weights to decrease), and pair them without
// replacement into up to m neighbor weight settings. Guided steps differ
// only in s.order (attribution-sorted instead of cost-sorted); the rank
// draws, pairing, and clamping rules are shared, so guided candidates stay
// legal Algorithm 2 moves and consume the same rng stream.
func (s *dtrSearch) buildNeighbors(w spf.Weights, guided bool) []spf.Weights {
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

	cands := make([]spf.Weights, 0, m)
	s.candArcs = s.candArcs[:0]
	for j := 0; j < m; j++ {
		up, down := s.aSet[j], s.bSet[j]
		if up == down {
			continue
		}
		nw, changed := neighborOf(w, up, down, s.p.Step, s.p.WMax)
		if changed {
			cands = append(cands, nw)
			s.candArcs = append(s.candArcs, [2]graph.EdgeID{up, down})
		}
	}
	s.generated += int64(len(cands))
	searchMet.candGenerated.Add(int64(len(cands)))
	return cands
}

// neighborOf clones w with w[up] increased and w[down] decreased by step,
// clamped to [1, wMax]. changed reports whether the clone differs from w.
func neighborOf(w spf.Weights, up, down graph.EdgeID, step, wMax int) (spf.Weights, bool) {
	nw := w.Clone()
	changed := false
	if v := nw[up] + step; v <= wMax {
		nw[up] = v
		changed = true
	} else if nw[up] != wMax {
		nw[up] = wMax
		changed = true
	}
	if v := nw[down] - step; v >= 1 {
		nw[down] = v
		changed = true
	} else if nw[down] != 1 {
		nw[down] = 1
		changed = true
	}
	return nw, changed
}

// evalCandidates evaluates all candidates, in parallel when the search has
// more than one worker. Each worker owns its evaluator (and that evaluator's
// incremental routers), so the delta paths parallelize without sharing.
// Results are reduced in candidate order, keeping the search deterministic
// regardless of scheduling.
func (s *dtrSearch) evalCandidates(cands []spf.Weights, fn func(worker, idx int, w spf.Weights) (cost.Lex, error)) []cost.Lex {
	lexes := make([]cost.Lex, len(cands))
	errs := make([]error, len(cands))
	workers := len(s.pool)
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i, w := range cands {
			lexes[i], errs[i] = fn(0, i, w)
		}
	} else {
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for i := wk; i < len(cands); i += workers {
					lexes[i], errs[i] = fn(wk, i, cands[i])
				}
			}(wk)
		}
		wg.Wait()
	}
	s.evals += int64(len(cands))
	s.stepCands += len(cands)
	searchMet.candEvaluated.Add(int64(len(cands)))
	if s.p.FullEval {
		s.fullEvals += int64(len(cands))
		searchMet.evalsFull.Add(int64(len(cands)))
	} else {
		s.deltaEvals += int64(len(cands))
		searchMet.evalsDelta.Add(int64(len(cands)))
	}
	for _, err := range errs {
		if err != nil {
			s.err = err
			break
		}
	}
	return lexes
}

// perturb re-randomizes a g fraction (at least one) of the weights in w,
// returning the changed arcs for the delta bookkeeping.
func (s *dtrSearch) perturb(w spf.Weights, g float64) []graph.EdgeID {
	count := int(g*float64(len(w)) + 0.5)
	if count < 1 {
		count = 1
	}
	perm := s.rng.Perm(len(w))[:count]
	arcs := make([]graph.EdgeID, 0, count)
	for _, i := range perm {
		w[i] = 1 + s.rng.IntN(s.p.WMax)
		arcs = append(arcs, graph.EdgeID(i))
	}
	return arcs
}
