package search

import (
	"strings"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/obs"
	"dualtopo/internal/spf"
)

// TestGuidedCandidatesAreLegalMoves pins the guided generator to Algorithm
// 2's move set: a guided step only swaps in the attribution ordering — every
// candidate must still be the move newMove builds for a distinct (up, down)
// pair produced by the paper's rank sampler over that ordering — one weight
// raised by at most Step (clamped to WMax), one lowered by at most Step
// (clamped to 1), at least one of them changed — and a worker must
// materialize it as exactly that vector.
func TestGuidedCandidatesAreLegalMoves(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			e := randomEvaluator(t, kind, 19)
			p := tinyParams()
			p.Guide = 1
			s, err := newDTRSearch(e, spf.Uniform(e.Graph().NumEdges()), spf.Uniform(e.Graph().NumEdges()), p)
			if err != nil {
				t.Fatal(err)
			}
			n := e.Graph().NumEdges()
			m := p.Neighbors
			wH := s.w[eval.High]
			for trial := 0; trial < 25; trial++ {
				s.rankLinks(eval.High, true)
				// The guided ordering must rank by decreasing score with
				// arc-ID tie-breaks — fully deterministic.
				for i := 1; i < n; i++ {
					a, b := s.order[i-1], s.order[i]
					if s.attr.HScore[a] < s.attr.HScore[b] ||
						(s.attr.HScore[a] == s.attr.HScore[b] && a > b) {
						t.Fatalf("guided order not (score desc, id asc) at %d: %v/%v", i, a, b)
					}
				}
				moves := s.buildNeighbors(eval.High, true)
				if len(moves) > m {
					t.Fatalf("guided step built %d candidates, sampler pairs at most %d", len(moves), m)
				}
				for ci, mv := range moves {
					if mv.up == mv.down {
						t.Fatalf("candidate %d raises and lowers the same arc %d", ci, mv.up)
					}
					if want, changed := newMove(wH, mv.up, mv.down, p.Step, p.WMax); !changed || mv != want {
						t.Fatalf("candidate %d is %+v, the legal move is %+v (changed=%v)", ci, mv, want, changed)
					}
					if mv.wUp < wH[mv.up] || mv.wUp > min(wH[mv.up]+p.Step, p.WMax) ||
						mv.wDown > wH[mv.down] || mv.wDown < max(wH[mv.down]-p.Step, 1) {
						t.Fatalf("candidate %d moves outside ±Step within [1,%d]: %+v from (%d,%d)",
							ci, p.WMax, mv, wH[mv.up], wH[mv.down])
					}
					cw, _, err := s.candidate(eval.High, 0, mv)
					if err != nil {
						t.Fatal(err)
					}
					for a := 0; a < n; a++ {
						want := wH[a]
						switch graph.EdgeID(a) {
						case mv.up:
							want = mv.wUp
						case mv.down:
							want = mv.wDown
						}
						if cw[a] != want {
							t.Fatalf("candidate %d materialized %d at arc %d, want %d", ci, cw[a], a, want)
						}
					}
				}
				// Move the incumbent so later trials exercise fresh
				// attributions, orderings and scratch resyncs.
				s.noteChange(eval.High, s.perturb(wH, 0.2))
				if err := s.refreshFull(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestGuidedSearchRunsAndVerifies drives full guided searches with
// VerifyDelta armed: every accepted guided move's incremental objective must
// equal its full re-evaluation, and the trajectory must be deterministic
// across worker counts.
func TestGuidedSearchRunsAndVerifies(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			p := tinyParams()
			p.Guide = 0.8
			p.Prune = true
			p.VerifyDelta = true
			one, err := DTR(randomEvaluator(t, kind, 23), p)
			if err != nil {
				t.Fatal(err)
			}
			p4 := p
			p4.Workers = 4
			four, err := DTR(randomEvaluator(t, kind, 23), p4)
			if err != nil {
				t.Fatal(err)
			}
			if one.Best != four.Best {
				t.Fatalf("guided best diverges across workers: %+v vs %+v", one.Best, four.Best)
			}
			for i := range one.WH {
				if one.WH[i] != four.WH[i] || one.WL[i] != four.WL[i] {
					t.Fatalf("guided weights diverge across workers at arc %d", i)
				}
			}
		})
	}
}

// TestSearchMetricsFamilies pins the new candidate-pipeline and portfolio
// metric families into the default registry's Prometheus exposition, so
// the /metrics surface (and its golden TYPE headers) cannot silently lose
// them.
func TestSearchMetricsFamilies(t *testing.T) {
	e := randomEvaluator(t, eval.LoadBased, 29)
	p := tinyParams()
	p.N, p.K = 40, 30
	p.Guide = 0.9
	p.Prune = true
	if _, err := DTR(e, p); err != nil {
		t.Fatal(err)
	}
	n := e.Graph().NumEdges()
	pp := PortfolioParams{Base: p, Strategies: DefaultPortfolio(2), Concurrency: 1}
	if _, err := Portfolio(e, spf.Uniform(n), spf.Uniform(n), pp); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE search_candidates_total counter",
		`search_candidates_total{outcome="generated"}`,
		`search_candidates_total{outcome="evaluated"}`,
		`search_candidates_total{outcome="pruned"}`,
		"# TYPE search_guided_steps_total counter",
		"# TYPE search_prune_rate gauge",
		"# TYPE portfolio_trajectories_total counter",
		`portfolio_trajectories_total{strategy="warm"}`,
		"# TYPE portfolio_best_phi_l gauge",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
