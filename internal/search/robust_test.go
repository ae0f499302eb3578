package search

import (
	"math"
	"reflect"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/resilience"
)

// robustParams attaches a small sampled single-link failure set to the tiny
// search budget.
func robustParams(t *testing.T, e *eval.Evaluator) Params {
	t.Helper()
	states, err := resilience.Enumerate(e.Graph(), resilience.Model{
		Kind: resilience.KindLink, Sample: 6, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := tinyParams()
	p.N = 60
	p.K = 40
	p.Robust = RobustParams{States: states, Alpha: 0.5, Beta: 0.5}
	return p
}

// TestRobustDTRDeterministicAcrossWorkers is the acceptance contract: a
// seeded robust search must produce bitwise-identical weights, objectives
// and robust scores at any worker count.
func TestRobustDTRDeterministicAcrossWorkers(t *testing.T) {
	e := randomEvaluator(t, eval.LoadBased, 41)
	var results []*DTRResult
	for _, workers := range []int{1, 4, 1} {
		p := robustParams(t, e)
		p.Workers = workers
		r, err := DTR(e, p)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	for i, r := range results[1:] {
		if !reflect.DeepEqual(results[0].WH, r.WH) || !reflect.DeepEqual(results[0].WL, r.WL) {
			t.Fatalf("run %d: weights differ from workers=1 run", i+1)
		}
		if results[0].Best != r.Best {
			t.Fatalf("run %d: objective %+v != %+v", i+1, r.Best, results[0].Best)
		}
		if !reflect.DeepEqual(results[0].Robust, r.Robust) {
			t.Fatalf("run %d: robust score %+v != %+v", i+1, r.Robust, results[0].Robust)
		}
	}
}

// TestRobustScoreReported checks the robust result surface: the score is
// present exactly when robust scoring is on, internally consistent, and its
// composite matches the search's secondary objective.
func TestRobustScoreReported(t *testing.T) {
	e := randomEvaluator(t, eval.LoadBased, 43)
	p := robustParams(t, e)
	r, err := DTR(e, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Robust == nil {
		t.Fatal("robust search reported no robust score")
	}
	rb := r.Robust
	if rb.States < 1 || rb.States > 6 {
		t.Fatalf("states = %d, want (0,6]", rb.States)
	}
	if rb.MeanPhiL <= 0 || rb.WorstPhiL < rb.MeanPhiL {
		t.Fatalf("inconsistent failure ΦL: mean %g, worst %g", rb.MeanPhiL, rb.WorstPhiL)
	}
	if rb.WorstState == "" {
		t.Fatal("no worst-state label")
	}
	if want := r.Result.PhiL + 0.5*rb.MeanPhiL + 0.5*rb.WorstPhiL; rb.Composite != want {
		t.Fatalf("composite = %g, want %g", rb.Composite, want)
	}

	// A nominal run of the same instance reports no robust score.
	nominal, err := DTR(e, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if nominal.Robust != nil {
		t.Fatal("nominal search reported a robust score")
	}
}

// TestRobustValidation covers the new parameter checks.
func TestRobustValidation(t *testing.T) {
	states := []resilience.State{{Label: "x", Arcs: nil}}
	p := tinyParams()
	p.Robust = RobustParams{States: states, Alpha: -1}
	if err := p.Validate(); err == nil {
		t.Error("negative alpha accepted")
	}
	for _, bad := range []RobustParams{
		{States: states, Alpha: math.NaN(), Beta: 1},
		{States: states, Alpha: 1, Beta: math.NaN()},
		{States: states, Alpha: math.Inf(1)},
		{States: states, Alpha: 1, Beta: math.Inf(-1)},
	} {
		p.Robust = bad
		if err := p.Validate(); err == nil {
			t.Errorf("non-finite robust weights accepted: alpha=%g beta=%g", bad.Alpha, bad.Beta)
		}
	}
	p.Robust = RobustParams{States: states}
	if err := p.Validate(); err == nil {
		t.Error("robust states with zero weights accepted")
	}
	p.Robust = RobustParams{States: states, Alpha: 1}
	if err := p.Validate(); err != nil {
		t.Errorf("valid robust params rejected: %v", err)
	}
}
