package search

import (
	"dualtopo/internal/eval"
	"dualtopo/internal/spf"
)

// Link-guided candidate generation: a guided step ranks arcs by the
// incumbent's arc attribution (per-arc ΦH / SLA violation mass for FindH,
// per-arc ΦL for FindL) instead of the current static cost ordering, then
// runs the paper's heavy-tail rank sampler over that ordering unchanged:
// weights rise on the arcs actually carrying the objective and fall on the
// arcs carrying none of it. Params.Guide sets the per-step probability of a
// guided step, keeping the blind cost ordering as the exploration floor.
//
// Only the ordering changes — guided steps draw the same k1/k2 ranks and
// build candidates through the same pairing and clamping rules as blind
// steps (buildNeighbors/newMove), so every guided candidate is a legal
// Algorithm 2 move (pinned by TestGuidedCandidatesAreLegalMoves) and the
// sampler keeps proposing fresh pairs between accepts. (An earlier design
// that pinned k1 = k2 = 1 on guided steps re-proposed the same extreme pairs
// until the next accept and measurably degraded solution quality on large
// load-based instances.)
//
// With Guide == 0 no extra randomness is consumed, so the search trajectory
// is bitwise-identical to the unguided implementation.

// useGuided draws the per-step guidance decision. The draw happens only when
// guidance is enabled, keeping the Guide == 0 rng stream untouched.
func (s *localSearch) useGuided() bool {
	if s.p.Guide <= 0 {
		return false
	}
	return s.rng.Float64() < s.p.Guide
}

// ensureAttr refreshes the cached arc attribution of the incumbent. The
// cache is invalidated whenever the incumbent solution moves (accepts,
// diversification refreshes). The violation walk follows the incumbent's
// high-priority trees, held by the primary routing state's router.
func (s *localSearch) ensureAttr() {
	if !s.attrFresh {
		s.e.AttributeTrees(&s.cur, &s.attr, s.e.State(eval.RouteDTR).Router(eval.High))
		s.attrFresh = true
	}
}

// Portfolio start-weight builders (see portfolio.go).

// invCapWeights maps each arc's capacity to a weight in [1, wMax] with
// weight proportional to inverse capacity (the classic OSPF InvCap
// heuristic): the fattest arc gets the smallest weight.
func invCapWeights(caps []float64, wMax int) spf.Weights {
	w := make(spf.Weights, len(caps))
	minCap := caps[0]
	for _, c := range caps {
		if c < minCap {
			minCap = c
		}
	}
	for i, c := range caps {
		w[i] = 1 + int(float64(wMax-1)*(minCap/c)+0.5)
		if w[i] > wMax {
			w[i] = wMax
		}
	}
	return w
}

// scoreWeights maps attribution scores to weights in [1, wMax]: the highest
// scored (most costly) arc gets the largest weight, pushing traffic off it.
// A flat score vector degrades to uniform weights.
func scoreWeights(score []float64, wMax int) spf.Weights {
	w := make(spf.Weights, len(score))
	max := 0.0
	for _, v := range score {
		if v > max {
			max = v
		}
	}
	if max <= 0 {
		return spf.Uniform(len(score))
	}
	for i, v := range score {
		w[i] = 1 + int(float64(wMax-1)*(v/max)+0.5)
		if w[i] > wMax {
			w[i] = wMax
		}
	}
	return w
}
