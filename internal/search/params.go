// Package search implements the paper's weight-setting heuristics: the DTR
// three-routine search of Algorithm 1 with the FindH/FindL neighborhoods of
// Algorithm 2 (§4), and the Fortz–Thorup "single weight change" local search
// used as the STR baseline, including the ε-relaxed record keeping of §5.3.
//
// Both run on one local-search loop (search.go): a routine proposes moves —
// one arc for STR, a raised/lowered arc pair for FindH and FindL, which are
// one step parameterised by traffic class — the worker pool scores them on
// per-worker scratch weights and incremental routers, the best strict
// improvement is accepted, and M idle iterations trigger a diversification.
// STR is a single routine on that loop; DTR is Algorithm 1's three.
package search

import (
	"fmt"
	"math"
	"runtime"

	"dualtopo/internal/resilience"
)

// RobustParams makes the DTR search failure-aware: every candidate is scored
// on a composite of its nominal objective and its low-priority cost across a
// fixed failure-state set, so the search trades a little intact-network ΦL
// for settings that degrade gracefully when links go down. The failure set
// is evaluated through the incremental sweep engine (disable → delta
// objective → repair), never by full re-evaluation.
type RobustParams struct {
	// States is the failure set every candidate is scored against; empty
	// disables robust scoring. Callers enumerate (and sample) it once via
	// resilience.Enumerate, so the set is seeded and fixed for the run.
	// States that disconnect the network are filtered out at search start —
	// reachability under a failure does not depend on the weights.
	States []resilience.State
	// Alpha and Beta weight the mean and worst-case failure ΦL added to a
	// candidate's nominal ΦL: score = ΦL + Alpha·mean + Beta·worst.
	Alpha, Beta float64
}

// enabled reports whether robust scoring is configured.
func (rp RobustParams) enabled() bool { return len(rp.States) > 0 }

// validate reports the first invalid robust field.
func (rp RobustParams) validate() error {
	if !(rp.Alpha >= 0) || !(rp.Beta >= 0) || math.IsInf(rp.Alpha, 1) || math.IsInf(rp.Beta, 1) {
		return fmt.Errorf("search: robust weights (alpha=%g, beta=%g) not finite and >= 0", rp.Alpha, rp.Beta)
	}
	if rp.enabled() && rp.Alpha == 0 && rp.Beta == 0 {
		return fmt.Errorf("search: robust failure set given but alpha and beta are both 0")
	}
	return nil
}

// Params configures the DTR search (Algorithm 1). Zero values are invalid;
// start from Defaults and override.
type Params struct {
	// N bounds iterations of routines 1 and 2 (paper: 300 000).
	N int
	// K bounds iterations of routine 3, the refinement (paper: 800 000).
	K int
	// M is the diversification interval: with no incumbent improvement for
	// M iterations, weights are randomly perturbed (paper: 300).
	M int
	// Neighbors is m, the neighborhood size per iteration (paper: 5).
	Neighbors int
	// G1, G2, G3 are the fractions of weights perturbed when diversifying in
	// routines 1, 2 and 3 (paper: 5%, 5%, 3%).
	G1, G2, G3 float64
	// Tau is the heavy-tail exponent of the rank-selection distribution
	// P(k) ∝ k^−τ (paper: 1.5).
	Tau float64
	// WMax is the maximum link weight (paper: 30; minimum is always 1).
	WMax int
	// Step is the amount FindH/FindL add to or subtract from a weight when
	// constructing a neighbor.
	Step int
	// Seed makes the search deterministic.
	Seed uint64
	// Guide is the per-step probability in [0, 1] that FindH/FindL rank the
	// candidate neighborhood by the incumbent's arc attribution (arcs
	// ordered by their contribution to ΦH/Λ and ΦL) instead of the static
	// link-cost ordering. The paper's heavy-tail rank sampler then draws
	// from that ordering unchanged, so guided candidates remain legal
	// Algorithm 2 moves and fresh pairs keep appearing between accepts. 0
	// (the default) reproduces the paper's Algorithm 2 stream bitwise; 1
	// guides every step; values in between keep the blind ordering as the
	// exploration floor.
	Guide float64
	// Prune skips the delta evaluation of candidates whose changed arcs
	// provably leave every shortest-path DAG of the class being re-routed
	// intact: such a candidate's objective equals the incumbent's bitwise,
	// so it can never be strictly selected. The search trajectory (accepted
	// weights, best solution) is identical with pruning on or off; only the
	// evaluation count drops. Ignored while failure-aware (Robust) scoring
	// is active — identical intact routing does not imply identical failure
	// sweeps, because candidates re-route failure states under their own
	// weights.
	Prune bool
	// Workers bounds concurrent neighbor evaluations; 0 means GOMAXPROCS.
	Workers int
	// RouteWorkers bounds the SPF worker pool of the search's from-scratch
	// routes: the refreshes that route the incumbent's routing state anew
	// (initialization, each routine's start, every diversification) and the
	// final evaluation. 0 (the default) picks a block-aware value from the
	// instance size and GOMAXPROCS — sequential on small instances,
	// parallel on large ones; 1 forces sequential routing; n > 1 fixes the
	// pool size. Parallel routing is bitwise-identical to sequential, so the
	// search trajectory does not depend on this setting. Candidate
	// evaluations and accepts are unaffected: they route incrementally, and
	// already parallelize across Workers.
	RouteWorkers int
	// VerifyDelta checks every candidate, inside its what-if, and every
	// accepted incumbent with eval.Evaluator.Verify: the routing state the
	// score was read off must agree field by field with a from-scratch
	// evaluation on the same evaluator's plans (the worker's for a
	// candidate, the search's for an accept), and so must the score. Any
	// difference fails the search. The trajectory is unchanged. Debug mode.
	VerifyDelta bool
	// Robust configures failure-aware candidate scoring; the zero value
	// keeps the search purely nominal.
	Robust RobustParams
	// OnEvent, when non-nil, receives one TraceEvent per search step —
	// iterations, accepts, diversification perturbations — from the search's
	// coordinating goroutine (never concurrently). The event stream is a
	// deterministic function of the search inputs: identical at any Workers
	// or RouteWorkers setting. Wrap a TraceWriter around a file to stream
	// the trajectory as JSONL.
	OnEvent func(TraceEvent)
}

// Defaults returns the paper's parameter settings (§5.1.3).
func Defaults() Params {
	return Params{
		N:         300000,
		K:         800000,
		M:         300,
		Neighbors: 5,
		G1:        0.05,
		G2:        0.05,
		G3:        0.03,
		Tau:       1.5,
		WMax:      30,
		Step:      1,
		Seed:      1,
		Workers:   0,
	}
}

// Validate reports the first invalid field.
func (p Params) Validate() error {
	switch {
	case p.N < 0 || p.K < 0:
		return fmt.Errorf("search: negative iteration budget (N=%d, K=%d)", p.N, p.K)
	case p.M < 1:
		return fmt.Errorf("search: diversification interval M=%d < 1", p.M)
	case p.Neighbors < 1:
		return fmt.Errorf("search: neighborhood size m=%d < 1", p.Neighbors)
	case !unit(p.G1) || !unit(p.G2) || !unit(p.G3):
		return fmt.Errorf("search: perturbation fractions (%g,%g,%g) outside [0,1]", p.G1, p.G2, p.G3)
	case !(p.Tau >= 0) || math.IsInf(p.Tau, 1):
		return fmt.Errorf("search: tau=%g not finite and >= 0", p.Tau)
	case p.WMax < 2:
		return fmt.Errorf("search: WMax=%d < 2", p.WMax)
	case p.Step < 1:
		return fmt.Errorf("search: step=%d < 1", p.Step)
	case !unit(p.Guide):
		return fmt.Errorf("search: guide=%g outside [0,1]", p.Guide)
	case p.Workers < 0:
		return fmt.Errorf("search: workers=%d < 0", p.Workers)
	case p.RouteWorkers < 0:
		return fmt.Errorf("search: route workers=%d < 0", p.RouteWorkers)
	}
	return p.Robust.validate()
}

// unit reports whether x lies in [0, 1]; NaN does not.
func unit(x float64) bool { return x >= 0 && x <= 1 }

func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// STRParams configures the STR baseline local search.
type STRParams struct {
	// Iterations bounds search iterations.
	Iterations int
	// Candidates is how many single-weight-change neighbors are sampled and
	// evaluated per iteration.
	Candidates int
	// M is the diversification interval, as in Params.
	M int
	// Perturb is the fraction of weights randomized when diversifying.
	Perturb float64
	// WMax is the maximum link weight.
	WMax int
	// Seed makes the search deterministic.
	Seed uint64
	// Epsilons lists the relaxation levels ε for which the search records
	// the best ΦL subject to ΦH ≤ (1+ε)·Φ*H (§5.3.1). May be empty.
	Epsilons []float64
	// Workers bounds concurrent candidate evaluations; 0 means GOMAXPROCS.
	Workers int
	// RouteWorkers bounds the SPF worker pool of the search's from-scratch
	// routes (the refreshes at the start and after each diversification,
	// the final evaluation); 0 = auto, 1 = sequential, see
	// Params.RouteWorkers.
	RouteWorkers int
	// VerifyDelta asserts delta == full on every candidate and accept; see
	// Params.VerifyDelta.
	VerifyDelta bool
}

// STRDefaults returns a baseline configuration whose evaluation budget
// (Iterations × Candidates) matches the DTR Defaults budget order.
func STRDefaults() STRParams {
	return STRParams{
		Iterations: 150000,
		Candidates: 10,
		M:          300,
		Perturb:    0.10,
		WMax:       30,
		Seed:       1,
		Epsilons:   []float64{0.05, 0.30},
	}
}

// Validate reports the first invalid field.
func (p STRParams) Validate() error {
	switch {
	case p.Iterations < 0:
		return fmt.Errorf("search: negative STR iterations %d", p.Iterations)
	case p.Candidates < 1:
		return fmt.Errorf("search: STR candidates %d < 1", p.Candidates)
	case p.M < 1:
		return fmt.Errorf("search: STR diversification interval M=%d < 1", p.M)
	case !unit(p.Perturb):
		return fmt.Errorf("search: STR perturbation %g outside [0,1]", p.Perturb)
	case p.WMax < 2:
		return fmt.Errorf("search: STR WMax=%d < 2", p.WMax)
	case p.Workers < 0:
		return fmt.Errorf("search: STR workers=%d < 0", p.Workers)
	case p.RouteWorkers < 0:
		return fmt.Errorf("search: STR route workers=%d < 0", p.RouteWorkers)
	}
	for _, e := range p.Epsilons {
		if !(e >= 0) || math.IsInf(e, 1) {
			return fmt.Errorf("search: epsilon %g not finite and >= 0", e)
		}
	}
	return nil
}

// params maps STR's knobs onto the shared loop's Params: Candidates is the
// neighborhood size (and so bounds the worker pool).
func (p STRParams) params() Params {
	return Params{
		M:            p.M,
		Neighbors:    p.Candidates,
		WMax:         p.WMax,
		Seed:         p.Seed,
		Workers:      p.Workers,
		RouteWorkers: p.RouteWorkers,
		VerifyDelta:  p.VerifyDelta,
	}
}
