package search

import (
	"math/rand/v2"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// TestPruneBoundSoundness is the randomized proof obligation behind
// pruneCandidates: whenever arcsInvariant certifies a two-arc weight change
// against trees anchored at the incumbent, a full evaluation of the changed
// weights must produce an objective bitwise-equal to the incumbent's — so a
// pruned candidate can never be one the search would have accepted (accepts
// require strict improvement).
func TestPruneBoundSoundness(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			invariantSeen, changedSeen := 0, 0
			for _, seed := range []uint64{3, 7, 19, 41} {
				e := randomEvaluator(t, kind, seed)
				g := e.Graph()
				n := g.NumEdges()
				rng := rand.New(rand.NewPCG(seed, 0xb0d))
				const wMax, step = 20, 3

				w := make(spf.Weights, n)
				for i := range w {
					w[i] = 1 + rng.IntN(wMax)
				}
				// Route e's DTR state at w, as the search's incumbent
				// state sits, and take the incumbent loads.
				st := e.State(eval.RouteDTR)
				if _, err := st.Move([2]spf.Weights{w, w}); err != nil {
					t.Fatal(err)
				}
				r, err := e.EvaluateDTR(w, w)
				if err != nil {
					t.Fatal(err)
				}
				base, baseL := r.Objective(), r.PhiL

				for trial := 0; trial < 120; trial++ {
					up := graph.EdgeID(rng.IntN(n))
					down := graph.EdgeID(rng.IntN(n))
					cw, changed := neighborOf(w, up, down, 1+rng.IntN(step), wMax)
					if !changed {
						continue
					}
					arcs := []graph.EdgeID{up, down}
					invH := arcsInvariant(st.Router(eval.High), w, cw, arcs)
					invL := arcsInvariant(st.Router(eval.Low), w, cw, arcs)
					if !invH && !invL {
						continue
					}
					ec := e.Clone()
					if invH {
						invariantSeen++
						full, err := ec.EvaluateDTR(cw, w)
						if err != nil {
							t.Fatal(err)
						}
						if got := full.Objective(); got != base {
							t.Fatalf("seed %d trial %d: arcs (%d,%d) certified H-invariant but the objective moved: %+v vs %+v",
								seed, trial, up, down, got, base)
						}
					}
					if invL {
						full, err := ec.EvaluateDTR(w, cw)
						if err != nil {
							t.Fatal(err)
						}
						if full.PhiL != baseL {
							t.Fatalf("seed %d trial %d: arcs (%d,%d) certified L-invariant but ΦL moved: %g vs %g",
								seed, trial, up, down, full.PhiL, baseL)
						}
					}
					changedSeen++
				}
			}
			if invariantSeen == 0 {
				t.Fatalf("property never exercised: no invariant candidates across %d checked moves", changedSeen)
			}
		})
	}
}

// TestPruneTransparency pins the other half of the prune contract: with the
// same seed, the pruned search must walk the identical trajectory as the
// unpruned one — same best objective, same final weights, same evaluation
// count bookkeeping difference coming only from skipped invariant candidates.
func TestPruneTransparency(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			p := tinyParams()
			off, err := DTR(randomEvaluator(t, kind, 37), p)
			if err != nil {
				t.Fatal(err)
			}
			pOn := p
			pOn.Prune = true
			on, err := DTR(randomEvaluator(t, kind, 37), pOn)
			if err != nil {
				t.Fatal(err)
			}
			if on.Best != off.Best {
				t.Fatalf("prune changed the best objective: %+v vs %+v", on.Best, off.Best)
			}
			for i := range on.WH {
				if on.WH[i] != off.WH[i] || on.WL[i] != off.WL[i] {
					t.Fatalf("prune changed the final weights at arc %d", i)
				}
			}
			if off.Pruned != 0 {
				t.Fatalf("unpruned run reports %d pruned candidates", off.Pruned)
			}
			if on.Pruned == 0 {
				t.Fatal("pruned run never pruned — the bound is not firing on this instance")
			}
			if on.DeltaEvals >= off.DeltaEvals {
				t.Fatalf("prune did not reduce delta evaluations: %d (on) vs %d (off)", on.DeltaEvals, off.DeltaEvals)
			}
			if on.DeltaEvals+on.Pruned != off.DeltaEvals {
				t.Fatalf("evaluation accounting broken: %d evaluated + %d pruned != %d unpruned evals",
					on.DeltaEvals, on.Pruned, off.DeltaEvals)
			}
		})
	}
}

// TestPruneDisabledUnderRobust: failure-aware scoring re-routes every
// candidate under each failure state, where intact-topology invariance proves
// nothing — the prune must silently stand down.
func TestPruneDisabledUnderRobust(t *testing.T) {
	e := randomEvaluator(t, eval.LoadBased, 31)
	p := robustParams(t, e)
	p.Prune = true
	r, err := DTR(e, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pruned != 0 {
		t.Fatalf("robust search pruned %d candidates; the bound must be disabled under Robust", r.Pruned)
	}
}
