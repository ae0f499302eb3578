// Incremental objective evaluation: the Objective*Delta methods mirror
// ObjectiveH / ObjectiveL / ObjectiveSTR but take the set of arcs whose
// weights changed since the previous call and drive a RoutingState (see
// state.go), which routes incrementally, re-scores only the arcs whose loads
// — or caller-supplied inputs — moved, and re-reduces in the order the full
// paths sum. Delta and full evaluation therefore agree bitwise, which the
// search's VerifyDelta debug mode and the equivalence tests assert.
package eval

import (
	"dualtopo/internal/cost"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// deltaState returns the evaluator's lazily built state of the given shape.
func (e *Evaluator) deltaState(shape Shape) *RoutingState {
	if e.delta[shape] == nil {
		e.delta[shape] = NewRoutingState(e, shape)
	}
	return e.delta[shape]
}

// DeltaCheckpointArmed reports whether any of the evaluator's incremental
// states holds an armed checkpoint. The Objective*Delta paths never arm one,
// so true means the state was corrupted from outside; session pools check it
// before reuse.
func (e *Evaluator) DeltaCheckpointArmed() bool {
	for _, s := range e.delta {
		if s != nil && s.CheckpointArmed() {
			return true
		}
	}
	return false
}

// ObjectiveHDelta is the incremental FindH fast path: wH must differ from
// the weights of the previous ObjectiveHDelta call only on the listed arcs
// (a superset is fine). The high-priority class is re-routed incrementally
// and only arcs whose H load moved — plus arcs where lLoads differs from the
// previous call — are re-scored. The first call (or any call after an
// error) routes from scratch. The result is bitwise-equal to
// ObjectiveH(wH, lLoads).
func (e *Evaluator) ObjectiveHDelta(wH spf.Weights, changed []graph.EdgeID, lLoads []float64) (cost.Lex, error) {
	s := e.deltaState(RouteH)
	s.SetInput(lLoads)
	if _, err := s.Apply([2]spf.Weights{High: wH}, changed); err != nil {
		return cost.Lex{}, err
	}
	if e.opts.Kind != SLABased {
		return cost.Lex{Primary: s.PhiH(), Secondary: s.PhiL()}, nil
	}
	lambda, _, _ := s.Penalties()
	return cost.Lex{Primary: lambda, Secondary: s.PhiL()}, nil
}

// ObjectiveLDelta is the incremental FindL fast path: wL must differ from
// the previous ObjectiveLDelta call's weights only on the listed arcs. The
// low-priority class is re-routed incrementally and ΦL re-scored only where
// the L load — or the externally supplied residual — moved. Bitwise-equal to
// ObjectiveL(wL, residual).
func (e *Evaluator) ObjectiveLDelta(wL spf.Weights, changed []graph.EdgeID, residual []float64) (float64, error) {
	s := e.deltaState(RouteL)
	s.SetInput(residual)
	if _, err := s.Apply([2]spf.Weights{Low: wL}, changed); err != nil {
		return 0, err
	}
	return s.PhiL(), nil
}

// ObjectiveSTRDelta is the incremental STR fast path: w must differ from the
// previous ObjectiveSTRDelta call's weights only on the listed arcs. Both
// classes are re-routed incrementally over one tree set. Bitwise-equal to
// ObjectiveSTR(w).
func (e *Evaluator) ObjectiveSTRDelta(w spf.Weights, changed []graph.EdgeID) (STRObjective, error) {
	s := e.deltaState(RouteSTR)
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
