package search

import (
	"fmt"
	"slices"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/obs"
	"dualtopo/internal/spf"
)

// TestDTRDeltaMatchesFullEval runs seeded DTR searches with VerifyDelta,
// which checks every candidate against a from-scratch evaluation on the
// scoring worker's plans (eval.Evaluator.Verify) and every accept on the
// search's, failing on any bitwise difference from the delta state or
// scores. Each
// verified run must finish and walk the trajectory of the unverified one:
// same weights, objective, counters and robust score. This is the
// end-to-end statement that the delta paths are bitwise-transparent to the
// heuristic, candidate by candidate, at one and at several workers.
func TestDTRDeltaMatchesFullEval(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*testing.T, *eval.Evaluator, *Params)
	}{
		{"plain", func(*testing.T, *eval.Evaluator, *Params) {}},
		// The prune and the attribution read the incumbent's trees off the
		// primary routing state, which candidates check out and revert.
		{"guided_pruned", func(_ *testing.T, _ *eval.Evaluator, p *Params) { p.Guide, p.Prune = 0.7, true }},
		// Robust candidates sweep the worker's state after their what-if.
		{"robust", func(t *testing.T, e *eval.Evaluator, p *Params) { *p = robustParams(t, e) }},
	}
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		for _, v := range variants {
			t.Run(kind.String()+"/"+v.name, func(t *testing.T) {
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
						run := func(verify bool) *DTRResult {
							e := randomEvaluator(t, kind, 11)
							p := tinyParams()
							v.mod(t, e, &p)
							p.Workers, p.VerifyDelta = workers, verify
							r, err := DTR(e, p)
							if err != nil {
								t.Fatal(err)
							}
							return r
						}
						plain, verified := run(false), run(true)
						if verified.Best != plain.Best {
							t.Fatalf("best objective: verified %+v, unverified %+v", verified.Best, plain.Best)
						}
						if verified.Evaluations != plain.Evaluations || verified.DeltaEvals != plain.DeltaEvals ||
							verified.FullEvals != plain.FullEvals || verified.Pruned != plain.Pruned {
							t.Fatalf("counters (evals, delta, full, pruned): verified (%d, %d, %d, %d), unverified (%d, %d, %d, %d)",
								verified.Evaluations, verified.DeltaEvals, verified.FullEvals, verified.Pruned,
								plain.Evaluations, plain.DeltaEvals, plain.FullEvals, plain.Pruned)
						}
						if !slices.Equal(verified.WH, plain.WH) || !slices.Equal(verified.WL, plain.WL) {
							t.Fatal("verified and unverified runs return different weights")
						}
						if (verified.Robust == nil) != (plain.Robust == nil) ||
							verified.Robust != nil && *verified.Robust != *plain.Robust {
							t.Fatalf("robust score: verified %+v, unverified %+v", verified.Robust, plain.Robust)
						}
					})
				}
			})
		}
	}
}

// TestSTRDeltaMatchesFullEval is the single-topology twin: VerifyDelta
// checks every candidate and accept against EvaluateSTR through
// eval.Evaluator.Verify, and the verified run must equal the unverified
// one, ε-records included.
func TestSTRDeltaMatchesFullEval(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
					run := func(verify bool) *STRResult {
						p := tinySTRParams()
						p.Workers, p.VerifyDelta = workers, verify
						r, err := STR(randomEvaluator(t, kind, 13), p)
						if err != nil {
							t.Fatal(err)
						}
						return r
					}
					plain, verified := run(false), run(true)
					if verified.Best != plain.Best || verified.Evaluations != plain.Evaluations {
						t.Fatalf("verified %+v after %d evaluations, unverified %+v after %d",
							verified.Best, verified.Evaluations, plain.Best, plain.Evaluations)
					}
					if !slices.Equal(verified.W, plain.W) {
						t.Fatal("verified and unverified runs return different weights")
					}
					for eps, rec := range plain.Relaxed {
						vr := verified.Relaxed[eps]
						if rec.Found != vr.Found || rec.PhiH != vr.PhiH || rec.PhiL != vr.PhiL || !slices.Equal(rec.W, vr.W) {
							t.Fatalf("relaxed record ε=%g: verified %+v, unverified %+v", eps, vr, rec)
						}
					}
				})
			}
		})
	}
}

// TestDTRDeltaParallelWorkersDeterministic re-runs the delta search with
// multiple workers and requires the single-worker trajectory. Worker delta
// routers hold independent incremental state, so this exercises the pending
// resync protocol under real scheduling races (and under -race in CI).
func TestDTRDeltaParallelWorkersDeterministic(t *testing.T) {
	p := tinyParams()
	p.VerifyDelta = true
	single, err := DTR(randomEvaluator(t, eval.LoadBased, 17), p)
	if err != nil {
		t.Fatal(err)
	}
	p4 := p
	p4.Workers = 4
	multi, err := DTR(randomEvaluator(t, eval.LoadBased, 17), p4)
	if err != nil {
		t.Fatal(err)
	}
	if single.Best != multi.Best {
		t.Fatalf("best objective: 1 worker %+v, 4 workers %+v", single.Best, multi.Best)
	}
	for i := range single.WH {
		if single.WH[i] != multi.WH[i] || single.WL[i] != multi.WL[i] {
			t.Fatalf("weight divergence at arc %d", i)
		}
	}
}

// TestSearchesReproducibleOnReusedEvaluator pins the ResetDelta contract:
// running the same seeded search twice on one Evaluator must reproduce the
// first run exactly. Without the reset, the second run's delta routers
// start at the first run's final position while the pending sets assume the
// incumbent — silently desynchronizing delta from full evaluation.
func TestSearchesReproducibleOnReusedEvaluator(t *testing.T) {
	e := randomEvaluator(t, eval.LoadBased, 11)
	n := e.Graph().NumEdges()
	p := tinyParams()
	p.VerifyDelta = true
	pp := PortfolioParams{
		Base:        p,
		Strategies:  DefaultPortfolio(3),
		Concurrency: 2,
	}
	var prevDTR *DTRResult
	var prevSTR *STRResult
	var prevPF *PortfolioResult
	for run := 0; run < 3; run++ {
		dr, err := DTR(e, p)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		sr, err := STR(e, tinySTRParams())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		// The portfolio clones e per trajectory and never routes on e itself,
		// so interleaving it here must disturb neither its own reproducibility
		// nor the plain searches'.
		pf, err := Portfolio(e, spf.Uniform(n), spf.Uniform(n), pp)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if prevDTR != nil {
			if dr.Best != prevDTR.Best || sr.Best != prevSTR.Best {
				t.Fatalf("run %d: objective changed on reuse (DTR %+v vs %+v, STR %+v vs %+v)",
					run, dr.Best, prevDTR.Best, sr.Best, prevSTR.Best)
			}
			for i := range dr.WH {
				if dr.WH[i] != prevDTR.WH[i] || dr.WL[i] != prevDTR.WL[i] || sr.W[i] != prevSTR.W[i] {
					t.Fatalf("run %d: weights changed on reuse at arc %d", run, i)
				}
			}
			if pf.BestIndex != prevPF.BestIndex || pf.Best.Best != prevPF.Best.Best {
				t.Fatalf("run %d: portfolio changed on reuse (best %d %+v vs %d %+v)",
					run, pf.BestIndex, pf.Best.Best, prevPF.BestIndex, prevPF.Best.Best)
			}
			for ti := range pf.Trajectories {
				if pf.Trajectories[ti].Result.Best != prevPF.Trajectories[ti].Result.Best {
					t.Fatalf("run %d: trajectory %d changed on reuse", run, ti)
				}
			}
		}
		prevDTR, prevSTR, prevPF = dr, sr, pf
	}
}

// TestDTRRoutesFromScratchOnlyAtRefreshes pins the work of a delta-path DTR
// search: candidates are checkpointed what-ifs and an accept applies the
// winning move to the incumbent's routing state, so whole-tree Dijkstras
// (spf_trees_total) happen only where the search evaluates from scratch —
// the initial refresh, the refreshes after each routine's adoptBest and
// after every perturbation, and the final EvaluateDTR — one tree per
// destination of each class each time. An accept that routed a class from
// scratch would add its destinations on top.
func TestDTRRoutesFromScratchOnlyAtRefreshes(t *testing.T) {
	const help = "SPF trees computed from scratch, by queue implementation."
	trees := obs.Default().CounterVec("spf_trees_total", help, "queue")
	total := func() int64 { return trees.With("bucket").Value() + trees.With("heap").Value() }
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			e := randomEvaluator(t, kind, 11)
			th, tl := e.Matrices()
			perDest := int64(len(th.ActiveDestinations()) + len(tl.ActiveDestinations()))
			p := tinyParams() // Workers 1, Prune and Guide off
			var perturbs, accepts int64
			p.OnEvent = func(ev TraceEvent) {
				switch {
				case ev.Kind == "perturb":
					perturbs++
				case ev.Accepted:
					accepts++
				}
			}
			before := total()
			if _, err := DTR(e, p); err != nil {
				t.Fatal(err)
			}
			got := total() - before
			if accepts == 0 || perturbs == 0 {
				t.Fatalf("%d accepts, %d perturbations: the test is vacuous", accepts, perturbs)
			}
			if want := perDest * (1 + 2 + perturbs + 1); got != want {
				t.Fatalf("%d full trees over %d accepts and %d perturbations, want %d: %d destinations × (initial + 2 adoptBest + %d perturb refreshes + final)",
					got, accepts, perturbs, want, perDest, perturbs)
			}
		})
	}
}

// TestSTRRoutesFromScratchOnlyAtRefreshes is the STR twin of
// TestDTRRoutesFromScratchOnlyAtRefreshes: the incumbent lives in the
// evaluator's STR routing state, which routes from scratch at the initial
// refresh and at the refresh after each perturbation, and the final
// EvaluateSTR routes the plans once — one tree per destination of the
// classes' union each time. A refresh that also routed the plans, or a
// candidate that routed the state from scratch, would add to it. The
// perturbation count is Evaluations less the scored candidates, less the
// initial refresh.
func TestSTRRoutesFromScratchOnlyAtRefreshes(t *testing.T) {
	const help = "SPF trees computed from scratch, by queue implementation."
	trees := obs.Default().CounterVec("spf_trees_total", help, "queue")
	total := func() int64 { return trees.With("bucket").Value() + trees.With("heap").Value() }
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			e := randomEvaluator(t, kind, 11)
			th, tl := e.Matrices()
			union := map[graph.NodeID]bool{}
			for _, d := range append(th.ActiveDestinations(), tl.ActiveDestinations()...) {
				union[d] = true
			}
			p := tinySTRParams()
			p.M = 20 // diversify a few times within the budget
			before := total()
			res, err := STR(e, p)
			if err != nil {
				t.Fatal(err)
			}
			got := total() - before
			perturbs := res.Evaluations - int64(p.Iterations*p.Candidates) - 1
			if perturbs <= 0 {
				t.Fatalf("%d perturbations: the test is vacuous", perturbs)
			}
			if want := int64(len(union)) * (1 + perturbs + 1); got != want {
				t.Fatalf("%d full trees over %d perturbations, want %d: %d destinations × (initial + %d perturb refreshes + final)",
					got, perturbs, want, len(union), perturbs)
			}
		})
	}
}
