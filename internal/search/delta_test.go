package search

import (
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/obs"
	"dualtopo/internal/spf"
)

// TestDTRDeltaMatchesFullEval runs the same seeded DTR search with
// incremental candidate evaluation (default) and with FullEval forced, and
// requires identical trajectories: same best weights, same objective, same
// evaluation count. This is the end-to-end statement that the delta paths
// are bitwise-transparent to the heuristic.
func TestDTRDeltaMatchesFullEval(t *testing.T) {
	variants := []struct {
		name  string
		guide float64
		prune bool
	}{
		{name: "plain"},
		// Guided + pruned steps must also be mode-transparent: the prune and
		// the attribution consult the incumbent's trees — the primary routing
		// state's in delta mode, s.e's plans in full mode.
		{name: "guided_pruned", guide: 0.7, prune: true},
	}
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		for _, v := range variants {
			t.Run(kind.String()+"/"+v.name, func(t *testing.T) {
				p := tinyParams()
				p.VerifyDelta = true // assert delta == full on every accept too
				p.Guide = v.guide
				p.Prune = v.prune

				delta, err := DTR(randomEvaluator(t, kind, 11), p)
				if err != nil {
					t.Fatal(err)
				}

				pf := p
				pf.FullEval = true
				pf.VerifyDelta = false
				full, err := DTR(randomEvaluator(t, kind, 11), pf)
				if err != nil {
					t.Fatal(err)
				}

				if delta.Best != full.Best {
					t.Fatalf("best objective: delta %+v, full %+v", delta.Best, full.Best)
				}
				if delta.Evaluations != full.Evaluations {
					t.Fatalf("evaluations: delta %d, full %d", delta.Evaluations, full.Evaluations)
				}
				if delta.Pruned != full.Pruned {
					t.Fatalf("pruned candidates: delta %d, full %d", delta.Pruned, full.Pruned)
				}
				for i := range delta.WH {
					if delta.WH[i] != full.WH[i] || delta.WL[i] != full.WL[i] {
						t.Fatalf("weight divergence at arc %d: delta (%d,%d), full (%d,%d)",
							i, delta.WH[i], delta.WL[i], full.WH[i], full.WL[i])
					}
				}
			})
		}
	}
}

// TestSTRDeltaMatchesFullEval is the single-topology twin.
func TestSTRDeltaMatchesFullEval(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			p := tinySTRParams()
			p.VerifyDelta = true

			delta, err := STR(randomEvaluator(t, kind, 13), p)
			if err != nil {
				t.Fatal(err)
			}

			pf := p
			pf.FullEval = true
			pf.VerifyDelta = false
			full, err := STR(randomEvaluator(t, kind, 13), pf)
			if err != nil {
				t.Fatal(err)
			}

			if delta.Best != full.Best {
				t.Fatalf("best objective: delta %+v, full %+v", delta.Best, full.Best)
			}
			if delta.Evaluations != full.Evaluations {
				t.Fatalf("evaluations: delta %d, full %d", delta.Evaluations, full.Evaluations)
			}
			for i := range delta.W {
				if delta.W[i] != full.W[i] {
					t.Fatalf("weight divergence at arc %d: delta %d, full %d", i, delta.W[i], full.W[i])
				}
			}
			for eps, rec := range delta.Relaxed {
				fr := full.Relaxed[eps]
				if rec.Found != fr.Found || rec.PhiH != fr.PhiH || rec.PhiL != fr.PhiL {
					t.Fatalf("relaxed record ε=%g: delta %+v, full %+v", eps, rec, fr)
				}
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
