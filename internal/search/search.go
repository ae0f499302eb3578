package search

import (
	"fmt"
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
	cur     eval.Result // DTR incumbent evaluation, refilled in place
	curLex  cost.Lex
	bestLex cost.Lex
	str     *strState  // STR-only state; nil for DTR
	shape   eval.Shape // the routing state the delta path drives; DTR sets it

	order []graph.EdgeID // scratch: links sorted by decreasing cost
	aSet  []graph.EdgeID // scratch: high-cost picks
	bSet  []graph.EdgeID // scratch: low-cost picks
	moves []move         // the current step's candidates

	// Candidates are moves, materialized per worker: scratch[c][wk] is worker
	// wk's weight vector for class c, and pending[c][wk] conservatively lists
	// the arcs on which that vector — or the worker's routing state of shape
	// s.shape — may differ from the incumbent w[c]: the worker's last
	// candidate plus every incumbent move (accept, perturbation, routine
	// transition) since. A candidate resyncs both to the incumbent on the
	// pending arcs (a no-op for the state unless the incumbent moved or a
	// sweep left it elsewhere), then scores its move as a what-if (see
	// evalCandidates), leaving pending at the move's arcs.
	scratch  [2][]spf.Weights
	pending  [2][][]graph.EdgeID
	mergeBuf [][]graph.EdgeID
	lexes    []cost.Lex
	errs     []error

	pool  []*eval.Evaluator // per-worker evaluators; pool[0] is e
	evals int64
	// deltaEvals/fullEvals split evals into candidates and incumbent
	// evaluations for the trace; only the coordinating goroutine updates
	// them, so they are deterministic.
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

// parallelRouting toggles the parallel full-route on the primary evaluator —
// its plans and its routing states' routers. It is scoped to the search's
// single-threaded phases (the refreshes that route the primary state from
// scratch, the final evaluation): during candidate evaluation the pool's
// goroutines are the parallelism, and s.e is pool[0], so it must route
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

// resync brings worker wk's scratch vectors and routing state to the
// incumbent on its pending arcs, and clears them. An unrouted (or Reset)
// state routes from scratch here.
func (s *localSearch) resync(wk int) error {
	var w [2]spf.Weights
	merged := s.mergeBuf[wk][:0]
	for c, pending := range s.pending {
		if pending == nil {
			continue // STR's low class
		}
		w[c] = s.scratch[c][wk]
		for _, a := range pending[wk] {
			w[c][a] = s.w[c][a]
		}
		merged = append(merged, pending[wk]...)
		pending[wk] = pending[wk][:0]
	}
	s.mergeBuf[wk] = merged
	_, err := s.pool[wk].State(s.shape).Apply(w, merged)
	return err
}

// candidate resyncs worker wk and turns mv into its scratch vector for class
// c, returning it with the move's arcs. Both are valid until the worker's
// next candidate.
func (s *localSearch) candidate(c, wk int, mv move) (spf.Weights, []graph.EdgeID, error) {
	if err := s.resync(wk); err != nil {
		return nil, nil, err
	}
	w := s.scratch[c][wk]
	mv.apply(w)
	s.pending[c][wk] = mv.appendArcs(s.pending[c][wk]) // empty after resync
	return w, s.pending[c][wk], nil
}

// noteChange records that the incumbent of class c moved on the given arcs:
// every worker's scratch and state for c are stale there until its next
// resync.
func (s *localSearch) noteChange(c int, arcs []graph.EdgeID) {
	for wk := range s.pending[c] {
		s.pending[c][wk] = append(s.pending[c][wk], arcs...)
	}
}

// evalCandidates scores every move of class c, in parallel when the search
// has more than one worker. Each worker owns its evaluator (and that
// evaluator's routing states) and its scratch vectors, so the delta paths
// parallelize without sharing. score scores candidate i, materialized as w
// with the move's arcs as its changed set, on worker wk as a what-if on the
// worker's routing state, between a Checkpoint and a Revert to the
// incumbent. A failure sweep drives the same state, so it runs after the
// Revert. Results are reduced in candidate order, keeping the search
// deterministic regardless of scheduling; the returned slice is valid until
// the next call.
func (s *localSearch) evalCandidates(c int, moves []move, score func(wk, i int, w spf.Weights, changed []graph.EdgeID) (cost.Lex, error)) []cost.Lex {
	n := len(moves)
	s.lexes = append(s.lexes[:0], make([]cost.Lex, n)...)
	s.errs = append(s.errs[:0], make([]error, n)...)
	run := func(wk, i int) {
		w, changed, err := s.candidate(c, wk, moves[i])
		if err == nil {
			st := s.pool[wk].State(s.shape)
			if err = st.Checkpoint(); err == nil {
				s.lexes[i], err = score(wk, i, w, changed)
				st.Revert()
			}
		}
		// A candidate whose primary objective is already worse than the
		// incumbent's can never be selected (the composite only touches the
		// secondary), so its failure sweep would be pure waste.
		if err == nil && s.robust() && !(s.lexes[i].Primary > s.curLex.Primary) {
			ws := s.w
			ws[c] = w
			s.robustAdd[i], err = s.robustTerm(wk, ws[eval.High], ws[eval.Low])
		}
		s.errs[i] = err
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
	s.deltaEvals += int64(n)
	s.count(searchMet.evalsDelta, int64(n))
	for _, err := range s.errs {
		if err != nil {
			s.err = err
			break
		}
	}
	return s.lexes
}

// verifyScore is the VerifyDelta check of one score: e's routing state of
// the given shape, which must sit at w, must agree with a from-scratch
// evaluation of w (eval.Evaluator.Verify), and so must the score got that
// the search read off it, derived from that evaluation by want.
func verifyScore[T comparable](e *eval.Evaluator, shape eval.Shape, w [2]spf.Weights, what string, got T, want func(*eval.Result) T) error {
	full, err := e.Verify(shape, w)
	if err != nil {
		return fmt.Errorf("search: verify %s: %w", what, err)
	}
	if got != want(full) {
		return fmt.Errorf("search: delta/full mismatch on %s: delta %+v, full %+v", what, got, want(full))
	}
	return nil
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
