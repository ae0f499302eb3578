package search

import (
	"fmt"
	"math"

	"dualtopo/internal/cost"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// RelaxedRecord is the best low-priority cost observed under the ε-relaxed
// precedence rule of §5.3.1: among all weight settings visited whose ΦH was
// within (1+ε) of the running optimum Φ*H, the one with the lowest ΦL.
type RelaxedRecord struct {
	W          spf.Weights
	PhiH, PhiL float64
	// Found is false when no visited setting satisfied the constraint (only
	// possible with an empty search budget).
	Found bool
}

// STRResult is the outcome of the single-topology baseline search.
type STRResult struct {
	// W is the best single weight setting found.
	W spf.Weights
	// Result is the full evaluation of W.
	Result *eval.Result
	// Best is Result's lexicographic objective.
	Best cost.Lex
	// Relaxed maps each requested ε to its record.
	Relaxed map[float64]RelaxedRecord
	// Evaluations counts objective evaluations performed.
	Evaluations int64
}

// STR runs the Fortz–Thorup-style "single weight change" local search [2]
// under the paper's lexicographic objective, starting from unit weights.
// Every candidate evaluation also feeds the ε-relaxation records.
func STR(e *eval.Evaluator, p STRParams) (*STRResult, error) {
	return STRFrom(e, spf.Uniform(e.Graph().NumEdges()), p)
}

// STRFrom runs the STR search from the given initial weights. The input is
// not modified. It is one routine on the shared local-search loop: stepSTR
// moves, Perturb-fraction diversification.
func STRFrom(e *eval.Evaluator, w0 spf.Weights, p STRParams) (*STRResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := w0.Validate(e.Graph()); err != nil {
		return nil, fmt.Errorf("search: initial W: %w", err)
	}
	defer e.ResetDelta() // see newLocalSearch
	s := newLocalSearch(e, p.params(), w0)
	inf := math.Inf(1) // a best the initial evaluation always beats
	s.str = &strState{
		epsilons: p.Epsilons,
		relaxed:  make(map[float64]RelaxedRecord, len(p.Epsilons)),
		best:     eval.STRObjective{Lex: cost.Lex{Primary: inf, Secondary: inf}, PhiH: inf},
	}
	if err := s.refreshSTR(); err != nil {
		return nil, err
	}
	s.runRoutine(0, "str", p.Iterations, s.stepSTR, func() error {
		s.noteChange(eval.High, s.perturb(s.w[eval.High], p.Perturb))
		return s.refreshSTR()
	})
	if s.err != nil {
		return nil, s.err
	}

	s.parallelRouting(true)
	best, err := e.EvaluateSTR(s.best[eval.High])
	s.parallelRouting(false)
	if err != nil {
		return nil, err
	}
	return &STRResult{
		W:           s.best[eval.High],
		Result:      best,
		Best:        best.Objective(),
		Relaxed:     s.str.relaxed,
		Evaluations: s.evals,
	}, nil
}

// strState is the STR-only part of a localSearch: both classes' costs of the
// incumbent and best solutions (the ε-records read ΦH), per-candidate
// objectives, and the records themselves.
type strState struct {
	cur, best eval.STRObjective
	objs      []eval.STRObjective
	epsilons  []float64
	relaxed   map[float64]RelaxedRecord
}

// refreshSTR evaluates the incumbent from scratch (at start and after each
// diversification), feeds it to the ε-records, and keeps it as the best if
// it improves on it. Like DTR's refreshFull, it routes the primary routing
// state from scratch — the incumbent lives there — and reads the incumbent's
// objective off it.
func (s *localSearch) refreshSTR() error {
	w := s.w[eval.High]
	s.e.State(eval.RouteSTR).Reset()
	s.parallelRouting(true)
	obj, err := s.e.ObjectiveSTRDelta(w, nil) // a Reset state routes from scratch
	s.parallelRouting(false)
	if err != nil {
		return err
	}
	s.evals++
	s.str.cur = obj
	s.record(obj, nil)
	if obj.Lex.Less(s.str.best.Lex) {
		copy(s.best[eval.High], w)
		s.str.best = obj
	}
	return nil
}

// stepSTR samples Candidates single-weight changes, scores them, feeds the
// relaxation records, and moves to the best candidate if it improves the
// current solution. Reports whether the best-known solution improved.
func (s *localSearch) stepSTR() bool {
	w, st := s.w[eval.High], s.str
	s.moves = s.moves[:0]
	for len(s.moves) < s.p.Neighbors {
		arc := graph.EdgeID(s.rng.IntN(len(w)))
		nw := 1 + s.rng.IntN(s.p.WMax)
		if nw != w[arc] {
			s.moves = append(s.moves, move{up: arc, down: arc, wUp: nw, wDown: nw})
		}
	}
	st.objs = append(st.objs[:0], make([]eval.STRObjective, len(s.moves))...)
	lexes := s.evalCandidates(eval.High, s.moves, func(wk, i int, w spf.Weights, changed []graph.EdgeID) (cost.Lex, error) {
		var err error
		if st.objs[i], err = s.pool[wk].ObjectiveSTRDelta(w, changed); err == nil && s.p.VerifyDelta {
			err = verifyScore(s.pool[wk], eval.RouteSTR, [2]spf.Weights{w}, "STR candidate", st.objs[i], (*eval.Result).STRObjective)
		}
		return st.objs[i].Lex, err
	})
	if s.err != nil {
		return false
	}
	bestIdx := -1
	bestLex := st.cur.Lex
	for i, lx := range lexes {
		s.record(st.objs[i], &s.moves[i])
		if lx.Less(bestLex) {
			bestLex = lx
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return false
	}
	s.moves[bestIdx].apply(w)
	s.noteChange(eval.High, s.moves[bestIdx].appendArcs(nil))
	st.cur = st.objs[bestIdx]
	if s.p.VerifyDelta {
		// The primary state sits at the previous incumbent until the next
		// candidate resyncs it; verify it at the accepted one.
		if s.err = s.resync(0); s.err == nil {
			s.err = verifyScore(s.e, eval.RouteSTR, [2]spf.Weights{w}, "STR accept", st.cur, (*eval.Result).STRObjective)
		}
		if s.err != nil {
			return false
		}
	}
	if st.cur.Lex.Less(st.best.Lex) {
		copy(s.best[eval.High], w)
		st.best = st.cur
		return true
	}
	return false
}

// record feeds one evaluated setting — the incumbent with mv applied, or the
// incumbent itself when mv is nil — into the ε-relaxation bookkeeping of
// §5.3.1: for each ε, keep the lowest-ΦL setting whose ΦH is within (1+ε)
// of the running optimum Φ*H(n). The rule is online, exactly as the paper
// describes: records are not re-filtered when Φ*H later improves. It covers
// every evaluated candidate (a superset of the visited-solution sequence).
// The setting's weights are materialized only when a record is stored.
//
// ε-relaxation is a load-based concept; for SLA-based runs the analogous
// relaxation is a looser delay bound, applied at the evaluator (§5.3.2).
func (s *localSearch) record(obj eval.STRObjective, mv *move) {
	st := s.str
	if len(st.epsilons) == 0 || s.e.Options().Kind != eval.LoadBased {
		return
	}
	// Φ*H(n): the lowest ΦH seen so far, including this candidate. For
	// load-based runs the lexicographic primary is ΦH itself.
	bestPhiH := min(st.best.PhiH, st.cur.PhiH, obj.PhiH)
	for _, epsilon := range st.epsilons {
		if obj.PhiH > (1+epsilon)*bestPhiH {
			continue
		}
		rec, ok := st.relaxed[epsilon]
		if !ok || !rec.Found || obj.PhiL < rec.PhiL {
			w := s.w[eval.High].Clone()
			if mv != nil {
				mv.apply(w)
			}
			st.relaxed[epsilon] = RelaxedRecord{W: w, PhiH: obj.PhiH, PhiL: obj.PhiL, Found: true}
		}
	}
}
