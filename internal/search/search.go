package search

import (
	"sync"

	"dualtopo/internal/cost"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/obs"
	"dualtopo/internal/resilience"
	"dualtopo/internal/spf"
)

// localSearch is the one neighbourhood search behind STR and DTR: a routine
// proposes moves against the incumbent, the worker pool scores them, the
// best strict improvement is accepted, and M iterations without improving
// the best-known solution trigger a diversification. DTR runs Algorithm 1's
// three routines on it (findClass per class, stepRefine); STR runs one
// routine of stepSTR over a single weight vector.
type localSearch struct {
	e       *eval.Evaluator
	p       Params // STR maps its STRParams onto the shared fields
	rng     *rng
	sampler *rankSampler // ranks [1, n-m+1] per Algorithm 2 (DTR)

	// w and best hold the incumbent and best-known weights, indexed by class
	// (eval.High, eval.Low). STR routes both classes on w[eval.High] and
	// leaves w[eval.Low] nil.
	w, best [2]spf.Weights
	cur     *eval.Result // DTR incumbent evaluation
	curLex  cost.Lex
	bestLex cost.Lex
	str     *strState // STR-only state; nil for DTR

	order []graph.EdgeID // scratch: links sorted by decreasing cost
	aSet  []graph.EdgeID // scratch: high-cost picks
	bSet  []graph.EdgeID // scratch: low-cost picks
	moves []move         // the current step's candidates

	// Candidates are moves, materialized per worker: scratch[c][wk] is worker
	// wk's weight vector for class c, and pending[c][wk] conservatively lists
	// the arcs on which that vector — and the worker's incremental router,
	// which sits at the same weights — may differ from the incumbent w[c]:
	// the worker's last candidate plus every incumbent move (accept,
	// perturbation, routine transition) since. A candidate resyncs the
	// scratch on the pending arcs, applies its move, passes pending ∪ move
	// arcs to the delta path as its changed set, and resets pending to the
	// move's arcs. The Objective*Delta superset contract holds by
	// construction; FullEval keeps the list for the scratch alone.
	scratch  [2][]spf.Weights
	pending  [2][][]graph.EdgeID
	mergeBuf [][]graph.EdgeID
	lexes    []cost.Lex
	errs     []error

	pool  []*eval.Evaluator // per-worker evaluators
	evals int64
	// deltaEvals/fullEvals split evals by path for the trace; only the
	// coordinating goroutine updates them, so they are deterministic.
	deltaEvals, fullEvals int64

	tally stepTally // the current step, for the trace
	err   error

	// Guided-generation state: the incumbent's cached arc attribution
	// (refreshed lazily on the first guided step after an incumbent move).
	attr      eval.Attribution
	attrFresh bool
	pruned    int64 // candidates the bound discarded, for DTRResult.Pruned

	// Failure-aware scoring state (see robust.go): a sweeper per pool evaluator,
	// the filtered failure set, per-candidate penalties, and the additive
	// penalties of the incumbent and best solutions.
	sweep           []*resilience.Sweeper
	rStates         []resilience.State
	robustAdd       []float64
	curRob, bestRob float64
}

// stepTally describes one step: how many candidates were evaluated, how
// many the bound pruned, and whether a move was accepted.
type stepTally struct {
	cands, pruned int
	accepted      bool
}

// move is one candidate: arc up's weight becomes wUp and arc down's wDown.
// DTR moves raise one arc and lower another (Algorithm 2); STR moves touch a
// single arc, stored as up == down.
type move struct {
	up, down   graph.EdgeID
	wUp, wDown int
}

// newMove builds Algorithm 2's move on w: w[up] raised and w[down] lowered
// by step, clamped to [1, wMax]. ok reports whether the move changes w.
func newMove(w spf.Weights, up, down graph.EdgeID, step, wMax int) (mv move, ok bool) {
	mv = move{up: up, down: down, wUp: min(w[up]+step, wMax), wDown: max(w[down]-step, 1)}
	return mv, mv.wUp != w[up] || mv.wDown != w[down]
}

// apply writes the move into w.
func (m move) apply(w spf.Weights) { w[m.up], w[m.down] = m.wUp, m.wDown }

// appendArcs appends the arcs the move touches to dst.
func (m move) appendArcs(dst []graph.EdgeID) []graph.EdgeID {
	if m.up == m.down {
		return append(dst, m.up)
	}
	return append(dst, m.up, m.down)
}

// newLocalSearch sets up the worker pool and one scratch vector per worker
// for each incumbent class in w0 (one for STR, two for DTR). The inputs are
// not modified. It drops e's routing states, and STRFrom and DTRFrom drop
// them again on return: a state the search leaves behind would make a later
// failure sweep on e keep maintaining the ΦH and delay vectors only FindH
// reads.
func newLocalSearch(e *eval.Evaluator, p Params, w0 ...spf.Weights) *localSearch {
	s := &localSearch{e: e, p: p, rng: newRNG(p.Seed)}
	workers := min(p.workers(), p.Neighbors)
	e.ResetDelta() // a reused evaluator must not leak a prior run's router position
	s.pool = make([]*eval.Evaluator, workers)
	s.pool[0] = e
	if p.FullEval {
		// Full candidate scoring routes worker 0's plans at candidate
		// weights, so it gets a clone: s.e's plans stay anchored at the
		// incumbent, as in delta mode, for the prune and the guided
		// attribution — both modes decide identically, bitwise.
		s.pool[0] = e.Clone()
	}
	for i := 1; i < workers; i++ {
		s.pool[i] = e.Clone()
	}
	s.mergeBuf = make([][]graph.EdgeID, workers)
	for c, w := range w0 {
		s.w[c], s.best[c] = w.Clone(), w.Clone()
		s.pending[c] = make([][]graph.EdgeID, workers)
		s.scratch[c] = make([]spf.Weights, workers)
		for wk := range s.scratch[c] {
			s.scratch[c][wk] = w.Clone()
		}
	}
	return s
}

// parallelRouting toggles the parallel full-route on the primary evaluator.
// It is scoped to the search's single-threaded phases (full refreshes,
// accepts, the final evaluation): during candidate evaluation the pool's
// goroutines are the parallelism, and s.e may be pool[0], so it must route
// sequentially there.
func (s *localSearch) parallelRouting(on bool) {
	if s.p.RouteWorkers != 1 {
		w := 1
		if on {
			w = s.p.RouteWorkers // 0 = block-aware auto
		}
		s.e.SetRouteWorkers(w)
	}
}

// count adds n to a search_* metric. Those families describe the DTR
// search, so STR runs leave them alone.
func (s *localSearch) count(c *obs.Counter, n int64) {
	if s.str == nil {
		c.Add(n)
	}
}

// runRoutine executes one routine: step is the per-iteration move and
// reports whether the best-known solution improved; diversify is the escape
// action (perturb, then re-evaluate the incumbent from scratch) taken after
// M iterations without improvement. Every iteration and every
// diversification emits one trace event.
func (s *localSearch) runRoutine(routine int, kind string, iterations int, step func() bool, diversify func() error) {
	if s.err != nil {
		return
	}
	iters := searchMet.iterations[kind] // nil for STR, which count skips
	sinceImprove := 0
	for iter := 0; iter < iterations; iter++ {
		s.tally = stepTally{}
		improvedBest := step()
		if s.err != nil {
			return
		}
		s.count(iters, 1)
		if s.tally.accepted {
			s.count(searchMet.accepts, 1)
		}
		s.emit(routine, iter, kind, improvedBest)
		if improvedBest {
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if sinceImprove >= s.p.M {
			if s.err = diversify(); s.err != nil {
				return
			}
			s.count(searchMet.perturbs, 1)
			s.tally = stepTally{}
			s.emit(routine, iter, "perturb", false)
			sinceImprove = 0
		}
	}
}

// emit delivers one trace event to the OnEvent hook. Called only from the
// coordinating goroutine, after the step's state is final.
func (s *localSearch) emit(routine, iter int, kind string, improved bool) {
	if s.p.OnEvent == nil {
		return
	}
	s.p.OnEvent(TraceEvent{
		Routine:     routine,
		Iter:        iter,
		Kind:        kind,
		Accepted:    s.tally.accepted,
		Improved:    improved,
		Candidates:  s.tally.cands,
		Pruned:      s.tally.pruned,
		PhiH:        s.cur.PhiH,
		PhiL:        s.cur.PhiL,
		BestPrimary: s.bestLex.Primary,
		BestPhiL:    s.bestLex.Secondary,
		DeltaEvals:  s.deltaEvals,
		FullEvals:   s.fullEvals,
	})
}

// candidate turns mv into worker wk's scratch vector for class c and returns
// it with the changed-arc set for the delta path; see localSearch.scratch.
// The returned slices are valid until the worker's next candidate.
func (s *localSearch) candidate(c, wk int, mv move) (spf.Weights, []graph.EdgeID) {
	w, inc, pending := s.scratch[c][wk], s.w[c], s.pending[c][wk]
	for _, a := range pending {
		w[a] = inc[a]
	}
	mv.apply(w)
	s.mergeBuf[wk] = mv.appendArcs(append(s.mergeBuf[wk][:0], pending...))
	s.pending[c][wk] = mv.appendArcs(pending[:0])
	return w, s.mergeBuf[wk]
}

// noteChange records that the incumbent of class c moved on the given arcs:
// every worker's scratch and router for c are stale there until its next
// candidate.
func (s *localSearch) noteChange(c int, arcs []graph.EdgeID) {
	for wk := range s.pending[c] {
		s.pending[c][wk] = append(s.pending[c][wk], arcs...)
	}
}

// evalCandidates scores every move of class c, in parallel when the search
// has more than one worker. Each worker owns its evaluator (and that
// evaluator's incremental routers) and its scratch vectors, so the delta
// paths parallelize without sharing. fn scores candidate i, materialized as
// w with the given changed set, on worker wk. Results are reduced in
// candidate order, keeping the search deterministic regardless of
// scheduling; the returned slice is valid until the next call.
func (s *localSearch) evalCandidates(c int, moves []move, fn func(wk, i int, w spf.Weights, changed []graph.EdgeID) (cost.Lex, error)) []cost.Lex {
	n := len(moves)
	s.lexes = append(s.lexes[:0], make([]cost.Lex, n)...)
	s.errs = append(s.errs[:0], make([]error, n)...)
	run := func(wk, i int) {
		w, changed := s.candidate(c, wk, moves[i])
		s.lexes[i], s.errs[i] = fn(wk, i, w, changed)
	}
	// Worker wk takes candidates wk, wk+workers, ...; the coordinating
	// goroutine is worker 0.
	workers := min(len(s.pool), n)
	var wg sync.WaitGroup
	for wk := 1; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := wk; i < n; i += workers {
				run(wk, i)
			}
		}()
	}
	for i := 0; i < n; i += workers {
		run(0, i)
	}
	wg.Wait()
	s.evals += int64(n)
	s.tally.cands += n
	s.count(searchMet.candEvaluated, int64(n))
	if s.p.FullEval {
		s.fullEvals += int64(n)
		s.count(searchMet.evalsFull, int64(n))
	} else {
		s.deltaEvals += int64(n)
		s.count(searchMet.evalsDelta, int64(n))
	}
	for _, err := range s.errs {
		if err != nil {
			s.err = err
			break
		}
	}
	return s.lexes
}

// perturb re-randomizes a g fraction (at least one) of the weights in w,
// returning the changed arcs for the pending bookkeeping.
func (s *localSearch) perturb(w spf.Weights, g float64) []graph.EdgeID {
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
