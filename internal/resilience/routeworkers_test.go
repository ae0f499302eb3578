package resilience

import (
	"math/rand/v2"
	"testing"
)

// TestRouteWorkersSweepBitwiseTransparent runs the from-scratch sweep modes
// on an evaluator with the parallel full-route enabled and requires
// bitwise-identical sweeps: sharded routing must be invisible to FullEval
// results and to the Verify oracle.
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
	seq := NewSweeper(seqE, Options{FullEval: true})
	par := NewSweeper(parE, Options{FullEval: true})

	ss, err := seq.SweepSTR(wSTR, states)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := par.SweepSTR(wSTR, states)
	if err != nil {
		t.Fatal(err)
	}
	equalSweeps(t, "STR", ps, ss)

	sd, err := seq.SweepDTR(wH, wL, states)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := par.SweepDTR(wH, wL, states)
	if err != nil {
		t.Fatal(err)
	}
	equalSweeps(t, "DTR", pd, sd)

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
