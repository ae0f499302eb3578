package resilience

import (
	"math/rand/v2"
	"testing"
)

// TestRouteWorkersSweepBitwiseTransparent evaluates every state from scratch
// on an evaluator with the parallel full-route enabled and on a sequential
// one, and requires bitwise-identical sweeps: sharded routing must be
// invisible to the from-scratch results and to the Verify oracle, which
// routes with its evaluator's bound.
func TestRouteWorkersSweepBitwiseTransparent(t *testing.T) {
	e := testEvaluator(t, 21)
	g := e.Graph()
	rng := rand.New(rand.NewPCG(23, 5))
	wSTR := randWeights(g.NumEdges(), rng)
	wH := randWeights(g.NumEdges(), rng)
	wL := randWeights(g.NumEdges(), rng)
	states, err := Enumerate(g, Model{Kind: KindLink, Count: 1})
	if err != nil {
		t.Fatal(err)
	}

	seqE, parE := e.Clone(), e.Clone()
	seqE.SetRouteWorkers(1)
	parE.SetRouteWorkers(4)
	equalSweeps(t, "STR", fullSweep(t, parE, states, wSTR, nil), fullSweep(t, seqE, states, wSTR, nil))
	equalSweeps(t, "DTR", fullSweep(t, parE, states, wH, wL), fullSweep(t, seqE, states, wH, wL))

	// The Verify oracle compares the delta path against parallel full
	// evaluations; any divergence fails the sweep internally.
	verify := NewSweeper(parE, Options{Verify: true})
	if _, err := verify.SweepSTR(wSTR, states); err != nil {
		t.Fatalf("verify STR with route workers: %v", err)
	}
	if _, err := verify.SweepDTR(wH, wL, states); err != nil {
		t.Fatalf("verify DTR with route workers: %v", err)
	}
}
