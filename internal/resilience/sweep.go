package resilience

import (
	"fmt"
	"math"
	"time"

	"dualtopo/internal/eval"
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
	// RouteWorkers bounds the SPF worker pool used by the from-scratch
	// evaluations of the FullEval and Verify modes; 0 picks a block-aware
	// automatic value from the instance size and GOMAXPROCS, 1 keeps them
	// sequential. Parallel routing is bitwise-identical to sequential, so
	// sweep results (and Verify verdicts) do not depend on this setting.
	RouteWorkers int
}

// Sweeper evaluates routings under failure states for one problem instance.
// It owns what is specific to failure sweeps — the state list, the Disabled
// masks over a pinned base weight setting, the FullEval/Verify oracles — and
// drives one eval.RoutingState per scheme for everything else: per state it
// checkpoints, applies the mask (a pure weight increase, served by the
// partial SPF path), reads ΦL off the maintained per-arc vector, and reverts
// — a support-sized rollback that never recomputes, even when the failure
// disconnected a demand. Results are bitwise-identical to evaluating each
// surviving topology from scratch; states whose failure leaves some demand
// unreachable are marked disconnecting (NaN).
//
// A Sweeper is not safe for concurrent use; give each goroutine its own.
type Sweeper struct {
	e    *eval.Evaluator // backs the full/verify paths
	opts Options

	str, dtr *scheme // lazy: both classes on one router / one router per class
}

// scheme is the per-scheme sweep state: the routing state pinned to a base
// weight setting, the base itself, and the working copy that states mask to
// Disabled and back.
type scheme struct {
	dual      bool
	st        *eval.RoutingState
	base, buf [2]spf.Weights
	phiBuf    []float64
}

// NewSweeper builds a sweeper over e's problem instance. The evaluator is
// cloned, so e's own routing plans are never disturbed.
func NewSweeper(e *eval.Evaluator, opts Options) *Sweeper {
	return NewSweeperFrom(e.Clone(), opts)
}

// NewSweeperFrom builds a sweeper that drives e directly instead of cloning
// it — the handle-friendly constructor for pooled engine sessions that
// already own a private evaluator clone and want one per-session sweeper
// without a second copy of the routing plans. The caller must not use e
// concurrently with the sweeper (full/verify sweeps route on it), and must
// accept that those modes leave e's plans at the last swept state.
func NewSweeperFrom(e *eval.Evaluator, opts Options) *Sweeper {
	s := &Sweeper{e: e, opts: opts}
	// The sweeper's evaluator is driven sequentially, so it can keep the
	// parallel full-route enabled for its lifetime (0 = auto).
	if opts.RouteWorkers != 1 {
		s.e.SetRouteWorkers(opts.RouteWorkers)
	}
	return s
}

// CheckpointArmed reports whether a sweep was abandoned between a state's
// checkpoint and its revert (a panic unwound through it). Session pools check
// it before reusing the sweeper.
func (s *Sweeper) CheckpointArmed() bool {
	for _, sc := range [2]*scheme{s.str, s.dtr} {
		if sc != nil && sc.st.CheckpointArmed() {
			return true
		}
	}
	return false
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

func (s *Sweeper) scheme(dual bool) *scheme {
	slot, shape := &s.str, eval.RouteSTR
	if dual {
		slot, shape = &s.dtr, eval.RouteDTR
	}
	if *slot == nil {
		m := s.e.Graph().NumEdges()
		sc := &scheme{dual: dual, st: eval.NewRoutingState(s.e, shape)}
		for c := range sc.base {
			sc.base[c] = make(spf.Weights, m)
			sc.buf[c] = make(spf.Weights, m)
		}
		*slot = sc
	}
	return *slot
}

// SweepSTR evaluates the single-topology routing w under every state,
// returning per-state ΦL. The result's PhiL slice is reused by the next
// SweepSTR call.
func (s *Sweeper) SweepSTR(w spf.Weights, states []State) (*Sweep, error) {
	if s.opts.FullEval {
		return s.sweepFull(states, w, nil, false)
	}
	return s.sweepDelta(s.scheme(false), w, w, states)
}

// SweepDTR evaluates the dual-topology routing (wH, wL) under every state.
// Both topologies lose the same arcs per state, per the failure model. The
// result's PhiL slice is reused by the next SweepDTR call.
func (s *Sweeper) SweepDTR(wH, wL spf.Weights, states []State) (*Sweep, error) {
	if s.opts.FullEval {
		return s.sweepFull(states, wH, wL, true)
	}
	return s.sweepDelta(s.scheme(true), wH, wL, states)
}

// fullPhiL evaluates one (possibly failed) weight setting from scratch.
func (s *Sweeper) fullPhiL(dual bool, wH, wL spf.Weights) (float64, error) {
	if dual {
		r, err := s.e.EvaluateDTR(wH, wL)
		if err != nil {
			return 0, err
		}
		return r.PhiL, nil
	}
	r, err := s.e.EvaluateSTR(wH)
	if err != nil {
		return 0, err
	}
	return r.PhiL, nil
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
		fwH := wH.WithFailedArcs(st.Arcs...)
		var fwL spf.Weights
		if dual {
			fwL = wL.WithFailedArcs(st.Arcs...)
		}
		phiL, err := s.fullPhiL(dual, fwH, fwL)
		if err != nil {
			sw.PhiL[i] = math.NaN()
			sw.Disconnecting++
			continue
		}
		sw.PhiL[i] = phiL
		sw.Survivors++
	}
	recordSweep(sw, time.Since(start).Seconds())
	return sw, nil
}

// sweepDelta is the fast path: pin the base routing (incrementally, from
// wherever the state currently sits), then per state mask the arcs, read ΦL,
// and revert.
func (s *Sweeper) sweepDelta(sc *scheme, wH, wL spf.Weights, states []State) (*Sweep, error) {
	start := time.Now()
	w := [2]spf.Weights{wH, wL}
	if _, err := sc.st.Move(w); err != nil {
		return nil, err
	}
	for c := range w {
		copy(sc.base[c], w[c])
		copy(sc.buf[c], w[c])
	}
	if cap(sc.phiBuf) < len(states) {
		sc.phiBuf = make([]float64, len(states))
	}
	sw := &Sweep{Base: sc.st.PhiL(), PhiL: sc.phiBuf[:len(states)]}
	if s.opts.Verify {
		full, err := s.fullPhiL(sc.dual, wH, wL)
		if err != nil {
			return nil, fmt.Errorf("resilience: verify: intact network failed full evaluation: %w", err)
		}
		if full != sw.Base {
			return nil, fmt.Errorf("resilience: verify: intact ΦL delta %v != full %v", sw.Base, full)
		}
	}
	for i, st := range states {
		phiL, ok, err := sc.evalState(st)
		if err != nil {
			return nil, err
		}
		if !ok {
			sw.PhiL[i] = math.NaN()
			sw.Disconnecting++
		} else {
			sw.PhiL[i] = phiL
			sw.Survivors++
		}
		if s.opts.Verify {
			if err := s.verifyState(sc, st, phiL, ok); err != nil {
				return nil, err
			}
		}
	}
	recordSweep(sw, time.Since(start).Seconds())
	return sw, nil
}

// evalState scores one failure state and restores the scheme to its base
// routing. ok reports whether the state left every demand connected.
func (sc *scheme) evalState(st State) (phiL float64, ok bool, err error) {
	if err := sc.st.Checkpoint(); err != nil {
		return 0, false, err
	}
	for _, a := range st.Arcs {
		sc.buf[eval.High][a], sc.buf[eval.Low][a] = spf.Disabled, spf.Disabled
	}
	if _, err := sc.st.Apply(sc.buf, st.Arcs); err == nil {
		phiL, ok = sc.st.PhiL(), true
	}
	sc.st.Revert()
	for _, a := range st.Arcs {
		sc.buf[eval.High][a], sc.buf[eval.Low][a] = sc.base[eval.High][a], sc.base[eval.Low][a]
	}
	return phiL, ok, nil
}

// verifyState asserts the delta outcome of one state — its ΦL and its
// disconnection verdict — against a from-scratch evaluation.
func (s *Sweeper) verifyState(sc *scheme, st State, phiL float64, ok bool) error {
	fwH := sc.base[eval.High].WithFailedArcs(st.Arcs...)
	var fwL spf.Weights
	if sc.dual {
		fwL = sc.base[eval.Low].WithFailedArcs(st.Arcs...)
	}
	full, err := s.fullPhiL(sc.dual, fwH, fwL)
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
