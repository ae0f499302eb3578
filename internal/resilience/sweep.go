package resilience

import (
	"fmt"
	"math"
	"time"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// Options configures how a Sweeper evaluates failure states.
type Options struct {
	// FullEval evaluates every state with a from-scratch EvaluateSTR /
	// EvaluateDTR instead of the incremental disable → delta → repair path.
	// Exists as the baseline for benchmarks and the Verify oracle.
	FullEval bool
	// Verify runs the delta path but re-evaluates every state (and the
	// intact baseline) from scratch too, failing the sweep on any bitwise
	// disagreement — including disagreement about disconnection. Debug mode.
	Verify bool
}

// Sweeper evaluates routings under failure states for one problem instance.
// It owns what is specific to failure sweeps — the state list, the Disabled
// masks over a pinned base weight setting, the FullEval/Verify oracles — and
// holds no router: it drives its evaluator's eval.RoutingState of each scheme
// (Evaluator.State) for everything else. Per state it checkpoints, applies
// the mask (a pure weight increase, served by the partial SPF path), reads ΦL
// off the maintained per-arc vector, and reverts — a support-sized rollback
// that never recomputes, even when the failure disconnected a demand. Results
// are bitwise-identical to evaluating each surviving topology from scratch;
// states whose failure leaves some demand unreachable are marked
// disconnecting (NaN).
//
// A Sweeper is not safe for concurrent use; give each goroutine its own, on
// an evaluator of its own.
type Sweeper struct {
	e       *eval.Evaluator // owns the routing states; backs the full/verify paths
	opts    Options
	schemes [2]scheme // indexed by eval.Shape
}

// scheme is one routing scheme's sweep bookkeeping: the base weight setting
// its state is pinned to, the working copy that states mask to Disabled and
// back, and the buffer behind Sweep.PhiL.
type scheme struct {
	base, buf [2]spf.Weights
	phiBuf    []float64
}

// NewSweeper builds a sweeper that drives e: its routing states for the
// delta path, its plans for the FullEval and Verify modes, routed with e's
// SetRouteWorkers bound. The caller must not use e concurrently with the
// sweeper, and must accept that a sweep leaves e's state of the swept scheme
// at the swept routing (and, in the full and verify modes, e's plans at the
// last swept state). A caller that wants e left alone passes e.Clone().
func NewSweeper(e *eval.Evaluator, opts Options) *Sweeper {
	return &Sweeper{e: e, opts: opts}
}

// Sweep is the outcome of evaluating one routing under a state set.
type Sweep struct {
	// Base is the intact-network ΦL, bitwise-equal to the full evaluation's.
	Base float64
	// PhiL holds the per-state low-priority cost, parallel to the swept
	// states; disconnecting states are NaN. The slice is reused by the
	// sweeper's next sweep of the same scheme.
	PhiL []float64
	// Survivors and Disconnecting partition the states.
	Survivors, Disconnecting int
}

// SweepSTR evaluates the single-topology routing w under every state. The
// result's PhiL slice is reused by the next SweepSTR call.
func (s *Sweeper) SweepSTR(w spf.Weights, states []State) (*Sweep, error) {
	if s.opts.FullEval {
		return s.sweepFull(states, w, nil, false)
	}
	return s.sweepDelta(eval.RouteSTR, w, w, states)
}

// SweepDTR evaluates the dual-topology routing (wH, wL) under every state.
// Both topologies lose the same arcs per state, per the failure model. The
// result's PhiL slice is reused by the next SweepDTR call.
func (s *Sweeper) SweepDTR(wH, wL spf.Weights, states []State) (*Sweep, error) {
	if s.opts.FullEval {
		return s.sweepFull(states, wH, wL, true)
	}
	return s.sweepDelta(eval.RouteDTR, wH, wL, states)
}

// fullPhiL evaluates the routing (wH, wL) — wH alone for STR — from scratch
// with the failed arcs down in every topology.
func (s *Sweeper) fullPhiL(dual bool, wH, wL spf.Weights, failed ...graph.EdgeID) (float64, error) {
	var r *eval.Result
	var err error
	if dual {
		r, err = s.e.EvaluateDTR(wH.WithFailedArcs(failed...), wL.WithFailedArcs(failed...))
	} else {
		r, err = s.e.EvaluateSTR(wH.WithFailedArcs(failed...))
	}
	if err != nil {
		return 0, err
	}
	return r.PhiL, nil
}

// record stores state i's outcome: its ΦL, or NaN if it disconnected.
func (sw *Sweep) record(i int, phiL float64, ok bool) {
	if !ok {
		sw.PhiL[i] = math.NaN()
		sw.Disconnecting++
		return
	}
	sw.PhiL[i] = phiL
	sw.Survivors++
}

// sweepFull is the opt-out path: every state is a from-scratch evaluation on
// WithFailedArcs copies, exactly what the pre-delta failure sweep did.
func (s *Sweeper) sweepFull(states []State, wH, wL spf.Weights, dual bool) (*Sweep, error) {
	start := time.Now()
	base, err := s.fullPhiL(dual, wH, wL)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Base: base, PhiL: make([]float64, len(states))}
	for i, st := range states {
		phiL, err := s.fullPhiL(dual, wH, wL, st.Arcs...)
		sw.record(i, phiL, err == nil)
	}
	recordSweep(sw, time.Since(start).Seconds())
	return sw, nil
}

// sweepDelta is the fast path on the evaluator's state of the given shape:
// pin the base routing (incrementally, from wherever the state currently
// sits), then per state mask the arcs, read ΦL, and revert.
func (s *Sweeper) sweepDelta(shape eval.Shape, wH, wL spf.Weights, states []State) (*Sweep, error) {
	start := time.Now()
	sc, st, dual := &s.schemes[shape], s.e.State(shape), shape == eval.RouteDTR
	w := [2]spf.Weights{wH, wL}
	if _, err := st.Move(w); err != nil {
		return nil, err
	}
	for c := range w {
		sc.base[c] = append(sc.base[c][:0], w[c]...)
		sc.buf[c] = append(sc.buf[c][:0], w[c]...)
	}
	if cap(sc.phiBuf) < len(states) {
		sc.phiBuf = make([]float64, len(states))
	}
	sw := &Sweep{Base: st.PhiL(), PhiL: sc.phiBuf[:len(states)]}
	if s.opts.Verify {
		full, err := s.fullPhiL(dual, wH, wL)
		if err != nil {
			return nil, fmt.Errorf("resilience: verify: intact network failed full evaluation: %w", err)
		}
		if full != sw.Base {
			return nil, fmt.Errorf("resilience: verify: intact ΦL delta %v != full %v", sw.Base, full)
		}
	}
	for i, fs := range states {
		phiL, ok, err := sc.evalState(st, fs)
		if err != nil {
			return nil, err
		}
		sw.record(i, phiL, ok)
		if s.opts.Verify {
			if err := s.verifyState(sc, dual, fs, phiL, ok); err != nil {
				return nil, err
			}
		}
	}
	recordSweep(sw, time.Since(start).Seconds())
	return sw, nil
}

// evalState scores failure state fs on the routing state st and restores st
// to the scheme's base routing. ok reports whether the state left every
// demand connected.
func (sc *scheme) evalState(st *eval.RoutingState, fs State) (phiL float64, ok bool, err error) {
	if err := st.Checkpoint(); err != nil {
		return 0, false, err
	}
	for _, a := range fs.Arcs {
		sc.buf[eval.High][a], sc.buf[eval.Low][a] = spf.Disabled, spf.Disabled
	}
	if _, err := st.Apply(sc.buf, fs.Arcs); err == nil {
		phiL, ok = st.PhiL(), true
	}
	st.Revert()
	for _, a := range fs.Arcs {
		sc.buf[eval.High][a], sc.buf[eval.Low][a] = sc.base[eval.High][a], sc.base[eval.Low][a]
	}
	return phiL, ok, nil
}

// verifyState asserts the delta outcome of one state — its ΦL and its
// disconnection verdict — against a from-scratch evaluation.
func (s *Sweeper) verifyState(sc *scheme, dual bool, st State, phiL float64, ok bool) error {
	full, err := s.fullPhiL(dual, sc.base[eval.High], sc.base[eval.Low], st.Arcs...)
	switch {
	case err != nil && ok:
		return fmt.Errorf("resilience: verify %q: delta survived, full evaluation disconnected: %v", st.Label, err)
	case err == nil && !ok:
		return fmt.Errorf("resilience: verify %q: delta disconnected, full evaluation survived (ΦL %v)", st.Label, full)
	case err == nil && full != phiL:
		return fmt.Errorf("resilience: verify %q: delta ΦL %v != full %v", st.Label, phiL, full)
	}
	return nil
}
