package engine

import (
	"dualtopo/internal/eval"
	"dualtopo/internal/resilience"
	"dualtopo/internal/spf"
)

// Session is the mutable half of a topology lease: a private evaluator
// clone, which owns the session's routing states (at most one STR and one
// DTR eval.RoutingState, built lazily), and a lazily-built failure sweeper
// that drives those same states. Neither the sweeper nor the session holds
// a router of its own. Sessions are NOT safe for concurrent use —
// concurrency comes from leasing several sessions off one Handle. All routing
// inside a session is sequential (RouteWorkers = 1), so results are
// bitwise-independent of which pooled session serves a request.
//
// The session owns the eval.Result its EvaluateSTR/EvaluateDTR return: each
// call overwrites it in place, so the pointer and every slice behind it are
// valid only until the session's next Evaluate call or its Release, whichever
// comes first. Callers that keep numbers copy them out; callers that need a
// Result of their own evaluate on Evaluator().
type Session struct {
	h   *Handle
	ev  *eval.Evaluator
	sw  *resilience.Sweeper // lazy; drives ev's routing states
	res eval.Result         // what EvaluateSTR/EvaluateDTR fill and return
}

func newSession(h *Handle) *Session {
	ev := h.base.Clone()
	ev.SetRouteWorkers(1)
	return &Session{h: h, ev: ev}
}

// Evaluator exposes the session's private evaluator for callers that need
// the full scoring surface (objective fast paths, attribution). The
// evaluator stays owned by the session: do not retain it past Release.
func (s *Session) Evaluator() *eval.Evaluator { return s.ev }

// SetRouteWorkers overrides the session's SPF worker bound (0 = automatic,
// 1 = sequential). Sessions default to sequential so pooled concurrency
// composes; a batch CLI holding a handle's only session can restore the
// parallel default. Results are bitwise-identical either way.
func (s *Session) SetRouteWorkers(n int) { s.ev.SetRouteWorkers(n) }

// EvaluateSTR scores single-topology routing under w. The Result is the
// session's own (see Session).
func (s *Session) EvaluateSTR(w spf.Weights) (*eval.Result, error) {
	met.routes.Inc()
	if err := s.ev.EvaluateSTRInto(&s.res, w); err != nil {
		return nil, err
	}
	return &s.res, nil
}

// EvaluateDTR scores dual-topology routing under (wH, wL). The Result is the
// session's own (see Session).
func (s *Session) EvaluateDTR(wH, wL spf.Weights) (*eval.Result, error) {
	met.routes.Inc()
	if err := s.ev.EvaluateDTRInto(&s.res, wH, wL); err != nil {
		return nil, err
	}
	return &s.res, nil
}

// checkpointArmed reports whether the session would fail the release-time
// leak assertion: one of the evaluator's routing states, which a sweep holds
// between Checkpoint and Revert for every what-if state, is still armed.
func (s *Session) checkpointArmed() bool { return s.ev.DeltaCheckpointArmed() }

// Reset discards every piece of incremental state — the evaluator's routing
// states, with their routers and any armed checkpoint, and the sweeper — so
// the next operation recomputes from scratch. Use it when a request failed
// midway and the session's state can no longer be trusted; Release invokes
// it automatically on a leaked checkpoint.
func (s *Session) Reset() {
	met.resets.Inc()
	s.ev.ResetDelta()
	s.sw = nil
}

// sweeper lazily builds the failure sweeper around the session's own
// evaluator (no clone: the session is single-user by contract).
func (s *Session) sweeper() *resilience.Sweeper {
	if s.sw == nil {
		s.sw = resilience.NewSweeperFrom(s.ev, resilience.Options{RouteWorkers: 1})
	}
	return s.sw
}

// SweepSTR evaluates single-topology routing under w across the failure
// states via the incremental disable → delta → repair path.
func (s *Session) SweepSTR(w spf.Weights, states []resilience.State) (*resilience.Sweep, error) {
	met.whatifs.Add(int64(len(states)))
	sw, err := s.sweeper().SweepSTR(w, states)
	if err != nil {
		s.ev.ResetDelta() // the swept state is suspect after a failure
	}
	return sw, err
}

// SweepDTR evaluates dual-topology routing under (wH, wL) across the
// failure states.
func (s *Session) SweepDTR(wH, wL spf.Weights, states []resilience.State) (*resilience.Sweep, error) {
	met.whatifs.Add(int64(len(states)))
	sw, err := s.sweeper().SweepDTR(wH, wL, states)
	if err != nil {
		s.ev.ResetDelta()
	}
	return sw, err
}

// CompareUnderFailures sweeps the STR and DTR schemes over the same states
// and pairs the surviving outcomes — the session-scoped equivalent of
// resilience.CompareSchemes on a hand-wired sweeper.
func (s *Session) CompareUnderFailures(wSTR, wH, wL spf.Weights, states []resilience.State) (*resilience.Samples, error) {
	met.whatifs.Add(2 * int64(len(states)))
	out, err := resilience.CompareSchemes(s.sweeper(), wSTR, wH, wL, states)
	if err != nil {
		s.ev.ResetDelta()
	}
	return out, err
}
