package search

import (
	"fmt"
	"math"

	"dualtopo/internal/cost"
	"dualtopo/internal/eval"
	"dualtopo/internal/resilience"
	"dualtopo/internal/spf"
)

// Failure-aware DTR search support: when Params.Robust carries a failure
// set, every candidate's secondary objective becomes
//
//	ΦL + Alpha·mean_f ΦL(f) + Beta·max_f ΦL(f)
//
// over the fixed surviving states f, each evaluated through the resilience
// sweep engine (disable → delta objective → revert) on the DTR state of the
// worker's own pool evaluator — the state its FindH/FindL delta scoring
// drives. A sweep moves that state to the candidate's weights, and the
// pending-arc bookkeeping only ever asks for a superset of the difference,
// so the next delta score routes from there. The primary objective stays nominal: robustness is a
// low-priority concern by the paper's construction (§5's robustness story is
// about how gracefully ΦL degrades). Because every sweep is a pure function
// of (candidate weights, states), robust scores — and therefore the search
// trajectory — are identical at any worker count.

// RobustScore reports the failure-aware metrics of a robust search's
// returned solution.
type RobustScore struct {
	// States counts the surviving failure states every candidate was scored
	// against (disconnecting states are filtered at search start).
	States int `json:"states"`
	// MeanPhiL and WorstPhiL summarize ΦL across the failure states for the
	// returned weights.
	MeanPhiL  float64 `json:"mean_phi_l"`
	WorstPhiL float64 `json:"worst_phi_l"`
	// WorstState labels the failure state attaining WorstPhiL.
	WorstState string `json:"worst_state"`
	// Composite is ΦL + Alpha·mean + Beta·worst — the secondary objective
	// the robust search minimized.
	Composite float64 `json:"composite"`
}

// robust reports whether failure-aware scoring is active.
func (s *localSearch) robust() bool { return len(s.rStates) > 0 }

// initRobust builds one sweeper per pool evaluator and filters the configured
// failure set down to states that keep every demand connected. Reachability
// under a failure depends only on the surviving arcs — never on the weights
// — so the filter holds for every candidate the search will visit.
func (s *localSearch) initRobust(wH0, wL0 spf.Weights) error {
	s.sweep = make([]*resilience.Sweeper, len(s.pool))
	for i, e := range s.pool {
		s.sweep[i] = resilience.NewSweeper(e, resilience.Options{})
	}
	res, err := s.sweep[0].SweepDTR(wH0, wL0, s.p.Robust.States)
	if err != nil {
		return err
	}
	for i, st := range s.p.Robust.States {
		if !math.IsNaN(res.PhiL[i]) {
			s.rStates = append(s.rStates, st)
		}
	}
	if len(s.rStates) == 0 {
		return fmt.Errorf("search: every robust failure state disconnects the network")
	}
	return nil
}

// robustStats sweeps (wH, wL) over the filtered states on the given worker's
// engines and reduces to (mean, worst, worst index).
func (s *localSearch) robustStats(worker int, wH, wL spf.Weights) (mean, worst float64, worstIdx int, err error) {
	res, err := s.sweep[worker].SweepDTR(wH, wL, s.rStates)
	if err != nil {
		return 0, 0, 0, err
	}
	if res.Disconnecting > 0 {
		return 0, 0, 0, fmt.Errorf("search: %d robust failure states disconnected mid-search", res.Disconnecting)
	}
	sum := 0.0
	for i, phi := range res.PhiL {
		sum += phi
		if phi > worst {
			worst = phi
			worstIdx = i
		}
	}
	return sum / float64(len(res.PhiL)), worst, worstIdx, nil
}

// robustTerm is the additive failure penalty of one candidate routing.
func (s *localSearch) robustTerm(worker int, wH, wL spf.Weights) (float64, error) {
	mean, worst, _, err := s.robustStats(worker, wH, wL)
	if err != nil {
		return 0, err
	}
	return s.p.Robust.Alpha*mean + s.p.Robust.Beta*worst, nil
}

// composite folds a robust penalty into a nominal objective for candidate
// and incumbent comparisons. Without robust scoring it is the identity.
func (s *localSearch) composite(lex cost.Lex, rob float64) cost.Lex {
	if !s.robust() {
		return lex
	}
	return cost.Lex{Primary: lex.Primary, Secondary: lex.Secondary + rob}
}

// finalRobust scores the best-found weights for reporting.
func (s *localSearch) finalRobust(nominalPhiL float64) (*RobustScore, error) {
	mean, worst, worstIdx, err := s.robustStats(0, s.best[eval.High], s.best[eval.Low])
	if err != nil {
		return nil, err
	}
	return &RobustScore{
		States:     len(s.rStates),
		MeanPhiL:   mean,
		WorstPhiL:  worst,
		WorstState: s.rStates[worstIdx].Label,
		Composite:  nominalPhiL + s.p.Robust.Alpha*mean + s.p.Robust.Beta*worst,
	}, nil
}
