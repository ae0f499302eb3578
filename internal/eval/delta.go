// Incremental objective evaluation: the Objective*Delta methods mirror
// ObjectiveH / ObjectiveL / ObjectiveSTR but take the set of arcs whose
// weights changed since the previous call and drive one of the evaluator's
// two RoutingStates (see state.go), which route incrementally, re-score only
// the arcs whose loads moved, and re-reduce in the order the full paths sum.
// Delta and full evaluation therefore agree bitwise, which the search's
// VerifyDelta debug mode and the equivalence tests assert.
package eval

import (
	"dualtopo/internal/cost"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// State returns the evaluator's routing state of the given shape, building
// it on first use. The evaluator owns at most one state per shape, and no
// other package builds one: the Objective*Delta paths, a resilience.Sweeper
// and a churn.Replayer built on this evaluator all drive these two, so a
// caller's changed set must cover every arc where its weights differ from
// wherever the last driver left the state (RoutingState.Move diffs against
// it instead). ResetDelta drops both.
func (e *Evaluator) State(shape Shape) *RoutingState {
	if e.states[shape] == nil {
		e.states[shape] = newRoutingState(e, shape)
	}
	return e.states[shape]
}

// DeltaCheckpointArmed reports whether either of the evaluator's routing
// states holds an armed checkpoint — a failure sweep abandoned between a
// state's Checkpoint and its Revert. Session pools check it before reuse.
func (e *Evaluator) DeltaCheckpointArmed() bool {
	for _, s := range e.states {
		if s != nil && s.CheckpointArmed() {
			return true
		}
	}
	return false
}

// ObjectiveHDelta is the incremental FindH fast path: wH must differ from
// the high-priority weights the evaluator's DTR state last routed — those of
// the previous ObjectiveHDelta call — only on the listed arcs (a superset is
// fine). Only the high-priority router moves, and only arcs whose H load
// moved are re-scored; ΦL is summed against lLoads directly. The first call
// (or any call after an error) routes from scratch. The result is
// bitwise-equal to ObjectiveH(wH, lLoads).
func (e *Evaluator) ObjectiveHDelta(wH spf.Weights, changed []graph.EdgeID, lLoads []float64) (cost.Lex, error) {
	s := e.State(RouteDTR)
	if _, err := s.Apply([2]spf.Weights{High: wH}, changed); err != nil {
		return cost.Lex{}, err
	}
	phiL := 0.0
	for a, l := range lLoads {
		phiL += cost.Phi(l, s.residual[a])
	}
	if e.opts.Kind != SLABased {
		return cost.Lex{Primary: s.PhiH(), Secondary: phiL}, nil
	}
	lambda, _, _ := s.Penalties()
	return cost.Lex{Primary: lambda, Secondary: phiL}, nil
}

// ObjectiveLDelta is the incremental FindL fast path: wL must differ from
// the low-priority weights the evaluator's DTR state last routed only on the
// listed arcs. Only the low-priority router moves; ΦL is summed against the
// caller's residual capacities. Bitwise-equal to ObjectiveL(wL, residual).
func (e *Evaluator) ObjectiveLDelta(wL spf.Weights, changed []graph.EdgeID, residual []float64) (float64, error) {
	s := e.State(RouteDTR)
	if _, err := s.Apply([2]spf.Weights{Low: wL}, changed); err != nil {
		return 0, err
	}
	phiL := 0.0
	for a, l := range s.loads[Low] {
		phiL += cost.Phi(l, residual[a])
	}
	return phiL, nil
}

// ObjectiveSTRDelta is the incremental STR fast path: w must differ from the
// weights the evaluator's STR state last routed only on the listed arcs.
// Both classes are re-routed incrementally over one tree set. Bitwise-equal
// to ObjectiveSTR(w).
func (e *Evaluator) ObjectiveSTRDelta(w spf.Weights, changed []graph.EdgeID) (STRObjective, error) {
	s := e.State(RouteSTR)
	if _, err := s.Apply([2]spf.Weights{High: w}, changed); err != nil {
		return STRObjective{}, err
	}
	o := STRObjective{PhiH: s.PhiH(), PhiL: s.PhiL()}
	if e.opts.Kind == SLABased {
		o.Lambda, o.Violations, _ = s.Penalties()
		o.Lex = cost.Lex{Primary: o.Lambda, Secondary: o.PhiL}
	} else {
		o.Lex = cost.Lex{Primary: o.PhiH, Secondary: o.PhiL}
	}
	return o, nil
}
