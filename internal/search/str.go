package search

import (
	"fmt"

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
	s.shape = eval.RouteSTR
	s.str = &strState{epsilons: p.Epsilons, relaxed: make(map[float64]RelaxedRecord, len(p.Epsilons))}
	if err := s.refreshFull(); err != nil {
		return nil, err
	}
	s.bestLex = s.curLex
	s.record(s.curLex, nil)
	s.runRoutine(0, "str", p.Iterations, s.stepSTR, func() error {
		s.noteChange(eval.High, s.perturb(s.w[eval.High], p.Perturb))
		err := s.refreshFull()
		if err == nil {
			s.record(s.curLex, nil)
			s.improveBest()
		}
		return err
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

// strState is the STR-only part of a localSearch: the ε-relaxation
// records. The incumbent and best solutions are the shared curLex and
// bestLex, whose primary is ΦH on the load-based runs that keep records.
type strState struct {
	epsilons []float64
	relaxed  map[float64]RelaxedRecord
}

// stepSTR samples Candidates single-weight changes, scores them, feeds the
// relaxation records, and moves to the best candidate if it improves the
// current solution. An accept takes the winner's score as the incumbent's
// instead of re-reading it (evalIncumbent would count an evaluation), so
// s.cur holds STR's incumbent only after a refresh. Reports whether the
// best-known solution improved.
func (s *localSearch) stepSTR() bool {
	w := s.w[eval.High]
	s.moves = s.moves[:0]
	for len(s.moves) < s.p.Neighbors {
		arc := graph.EdgeID(s.rng.IntN(len(w)))
		nw := 1 + s.rng.IntN(s.p.WMax)
		if nw != w[arc] {
			s.moves = append(s.moves, move{up: arc, down: arc, wUp: nw, wDown: nw})
		}
	}
	lexes := s.evalCandidates(eval.High, s.moves)
	if s.err != nil {
		return false
	}
	bestIdx := -1
	win := s.curLex
	for i, lx := range lexes {
		s.record(lx, &s.moves[i])
		if lx.Less(win) {
			win = lx
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return false
	}
	s.moves[bestIdx].apply(w)
	s.noteChange(eval.High, s.moves[bestIdx].appendArcs(nil))
	s.curLex = win
	if s.p.VerifyDelta {
		// The primary state sits at the previous incumbent until the next
		// candidate resyncs it; verify it at the accepted one.
		if s.err = s.resync(0); s.err == nil {
			s.err = verifyScore(s.e, s.shape, s.w, "STR accept", s.curLex)
		}
		if s.err != nil {
			return false
		}
	}
	return s.improveBest()
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
func (s *localSearch) record(lex cost.Lex, mv *move) {
	st := s.str
	if len(st.epsilons) == 0 || s.e.Options().Kind != eval.LoadBased {
		return
	}
	// A load-based score is ⟨ΦH, ΦL⟩. Φ*H(n) is the lowest ΦH seen so far,
	// including this candidate.
	phiH, phiL := lex.Primary, lex.Secondary
	bestPhiH := min(s.bestLex.Primary, s.curLex.Primary, phiH)
	for _, epsilon := range st.epsilons {
		if phiH > (1+epsilon)*bestPhiH {
			continue
		}
		rec, ok := st.relaxed[epsilon]
		if !ok || !rec.Found || phiL < rec.PhiL {
			w := s.w[eval.High].Clone()
			if mv != nil {
				mv.apply(w)
			}
			st.relaxed[epsilon] = RelaxedRecord{W: w, PhiH: phiH, PhiL: phiL, Found: true}
		}
	}
}
