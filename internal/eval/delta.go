// The evaluator's two RoutingStates (see state.go), which route
// incrementally, re-score only the arcs whose loads moved, and re-reduce in
// the order the full paths sum, so delta and full evaluation agree bitwise;
// the incremental objectives driven on them; and Verify, the one check of
// that agreement, which the Verify modes of the search, the failure sweeper
// and the churn replayer all call.
package eval

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dualtopo/internal/cost"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// State returns the evaluator's routing state of the given shape, building
// it on first use. The evaluator owns at most one state per shape, and no
// other package builds one: the searches, a resilience.Sweeper and a
// churn.Replayer built on this evaluator all drive these two, so a
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

// ObjectiveHDelta moves the high class of the evaluator's DTR state to wH,
// which must differ from the high-priority weights it last routed only on
// the listed arcs (a superset is fine), and scores it as FindH does, with
// ΦL summed against lLoads. Kept for bench/; the next benchmark change
// deletes it.
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

// ObjectiveLDelta moves the low class of the evaluator's DTR state to wL,
// which must differ from the low-priority weights it last routed only on the
// listed arcs, and returns ΦL summed against residual. Kept for bench/; the
// next benchmark change deletes it.
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

// ObjectiveSTRDelta moves the evaluator's STR state to w, which must differ
// from the weights it last routed only on the listed arcs, and returns its
// Objective. Kept for bench/; the next benchmark change deletes it.
func (e *Evaluator) ObjectiveSTRDelta(w spf.Weights, changed []graph.EdgeID) (cost.Lex, error) {
	s := e.State(RouteSTR)
	if _, err := s.Apply([2]spf.Weights{High: w}, changed); err != nil {
		return cost.Lex{}, err
	}
	return s.Objective(), nil
}

// Verify is the one check that a routing state equals a from-scratch
// evaluation. It evaluates w (w[High] alone for RouteSTR) on the evaluator's
// plans, which are separate from its states, and requires State(shape),
// which must sit at w, to agree: the full evaluation fails with
// spf.ErrNoPath exactly when the state is not Valid, and otherwise every
// field of the state's ResultInto is bitwise-equal to it. It returns the
// full evaluation, reused by the next call, so that a caller can also check
// a score it derived — or nil, nil when both agree that w disconnects some
// demand. Reading the state may arm its ΦH maintenance, and its delay
// maintenance on SLA instances: the price of the check.
func (e *Evaluator) Verify(shape Shape, w [2]spf.Weights) (*Result, error) {
	full, got := &e.scratch[0], &e.scratch[1]
	var err error
	if shape == RouteSTR {
		err = e.EvaluateSTRInto(full, w[High])
	} else {
		err = e.EvaluateDTRInto(full, w[High], w[Low])
	}
	s := e.State(shape)
	switch {
	case err != nil && !errors.Is(err, spf.ErrNoPath):
		return nil, fmt.Errorf("eval: verify: full evaluation: %w", err)
	case err != nil && s.Valid():
		return nil, fmt.Errorf("eval: verify: the state routes, the full evaluation disconnects: %v", err)
	case err != nil:
		return nil, nil
	case !s.Valid():
		return nil, errors.New("eval: verify: the state disconnects, the full evaluation routes")
	}
	for c, dr := range s.dr {
		if dr != nil && !slices.Equal(dr.Weights(), w[c]) {
			return nil, fmt.Errorf("eval: verify: the state's class-%d weights are not the verified ones", c)
		}
	}
	s.ResultInto(got)
	if err := diffResults(got, full); err != nil {
		return nil, fmt.Errorf("eval: verify: state vs full evaluation: %w", err)
	}
	return full, nil
}

// diffResults names the first field in which got and want differ bitwise.
func diffResults(got, want *Result) error {
	for _, f := range [...]struct {
		name      string
		got, want float64
	}{
		{"PhiH", got.PhiH, want.PhiH},
		{"PhiL", got.PhiL, want.PhiL},
		{"Lambda", got.Lambda, want.Lambda},
		{"Violations", float64(got.Violations), float64(want.Violations)},
		{"ViolationMass", got.ViolationMass, want.ViolationMass},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Errorf("%s %v != %v", f.name, f.got, f.want)
		}
	}
	for _, f := range [...]struct {
		name      string
		got, want []float64
	}{
		{"HLoads", got.HLoads, want.HLoads},
		{"LLoads", got.LLoads, want.LLoads},
		{"Residual", got.Residual, want.Residual},
		{"LinkPhiH", got.LinkPhiH, want.LinkPhiH},
		{"LinkPhiL", got.LinkPhiL, want.LinkPhiL},
		{"LinkDelay", got.LinkDelay, want.LinkDelay},
		{"PairDelays", got.PairDelays, want.PairDelays},
	} {
		if len(f.got) != len(f.want) {
			return fmt.Errorf("%s has %d entries, not %d", f.name, len(f.got), len(f.want))
		}
		for i, x := range f.got {
			if math.Float64bits(x) != math.Float64bits(f.want[i]) {
				return fmt.Errorf("%s[%d] %v != %v", f.name, i, x, f.want[i])
			}
		}
	}
	return nil
}
