package search

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// tinyParams returns a small but real search budget for unit tests.
func tinyParams() Params {
	p := Defaults()
	p.N = 150
	p.K = 150
	p.M = 40
	p.Neighbors = 4
	p.Seed = 7
	p.Workers = 1
	return p
}

func tinySTRParams() STRParams {
	p := STRDefaults()
	p.Iterations = 300
	p.Candidates = 6
	p.M = 60
	p.Seed = 7
	p.Workers = 1
	return p
}

// triangleEvaluator builds the §3.3.1 instance.
func triangleEvaluator(t *testing.T) *eval.Evaluator {
	t.Helper()
	g := graph.New(3)
	g.AddLink(0, 1, 1, 1)
	g.AddLink(1, 2, 1, 1)
	g.AddLink(0, 2, 1, 1)
	th := traffic.NewMatrix(3)
	th.Set(0, 2, 1.0/3)
	tl := traffic.NewMatrix(3)
	tl.Set(0, 2, 2.0/3)
	e, err := eval.New(g, th, tl, eval.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// randomEvaluator builds a small random instance for integration tests.
func randomEvaluator(t *testing.T, kind eval.Kind, seed uint64) *eval.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	g, err := topo.Random(12, 30, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	topo.AssignUniformDelays(g, topo.MinSynthDelayMs, topo.MaxSynthDelayMs, rng)
	tl := traffic.Gravity(12, rng)
	th, err := traffic.RandomHighPriority(12, 0.15, 0.30, tl.Total(), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Scale to a moderately loaded network where DTR has room to help.
	total := tl.Total() + th.Total()
	target := 0.65 * 500 * float64(g.NumEdges()) / 4.0 // rough: avg path ~4 hops
	tl.Scale(target / total)
	th.Scale(target / total)
	opts := eval.DefaultOptions()
	opts.Kind = kind
	e, err := eval.New(g, th, tl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParamsValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("Defaults invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.N = -1 },
		func(p *Params) { p.M = 0 },
		func(p *Params) { p.Neighbors = 0 },
		func(p *Params) { p.G1 = 1.5 },
		func(p *Params) { p.Tau = -1 },
		func(p *Params) { p.WMax = 1 },
		func(p *Params) { p.Step = 0 },
		func(p *Params) { p.Guide = -0.1 },
		func(p *Params) { p.Guide = 1.01 },
		func(p *Params) { p.Workers = -2 },
		func(p *Params) { p.G2 = math.NaN() },
		func(p *Params) { p.G3 = math.Inf(1) },
		func(p *Params) { p.Tau = math.NaN() },
		func(p *Params) { p.Tau = math.Inf(1) },
		func(p *Params) { p.Guide = math.NaN() },
		func(p *Params) { p.Guide = math.Inf(-1) },
	}
	for i, mutate := range bad {
		p := Defaults()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestSTRParamsValidate(t *testing.T) {
	if err := STRDefaults().Validate(); err != nil {
		t.Fatalf("STRDefaults invalid: %v", err)
	}
	bad := []func(*STRParams){
		func(p *STRParams) { p.Iterations = -1 },
		func(p *STRParams) { p.Candidates = 0 },
		func(p *STRParams) { p.M = 0 },
		func(p *STRParams) { p.Perturb = -0.1 },
		func(p *STRParams) { p.WMax = 0 },
		func(p *STRParams) { p.Epsilons = []float64{-0.05} },
		func(p *STRParams) { p.Workers = -1 },
		func(p *STRParams) { p.Perturb = math.NaN() },
		func(p *STRParams) { p.Perturb = math.Inf(1) },
		func(p *STRParams) { p.Epsilons = []float64{0.05, math.NaN()} },
		func(p *STRParams) { p.Epsilons = []float64{math.Inf(1)} },
	}
	for i, mutate := range bad {
		p := STRDefaults()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestRankSamplerRange(t *testing.T) {
	s := newRankSampler(20, 1.5)
	r := newRNG(1)
	for i := 0; i < 2000; i++ {
		k := s.sample(r.Rand)
		if k < 1 || k > 20 {
			t.Fatalf("sample %d outside [1,20]", k)
		}
	}
}

func TestRankSamplerHeavyTail(t *testing.T) {
	// τ = 1.5 prefers low ranks; τ = 0 is uniform.
	const n = 50
	count := func(tau float64) int {
		s := newRankSampler(n, tau)
		r := newRNG(2)
		ones := 0
		for i := 0; i < 5000; i++ {
			if s.sample(r.Rand) == 1 {
				ones++
			}
		}
		return ones
	}
	heavy := count(1.5)
	uniform := count(0)
	if heavy < 3*uniform {
		t.Fatalf("rank-1 frequency: tau=1.5 %d vs tau=0 %d; want strong preference", heavy, uniform)
	}
	// Uniform should put roughly 1/n mass on rank 1.
	if uniform < 5000/n/3 || uniform > 5000/n*3 {
		t.Fatalf("tau=0 rank-1 frequency %d not near uniform %d", uniform, 5000/n)
	}
}

func TestRankSamplerDegenerate(t *testing.T) {
	s := newRankSampler(1, 1.5)
	r := newRNG(3)
	for i := 0; i < 10; i++ {
		if k := s.sample(r.Rand); k != 1 {
			t.Fatalf("max=1 sampler returned %d", k)
		}
	}
	if s2 := newRankSampler(0, 1.0); s2.max != 1 {
		t.Fatalf("max=0 clamps to %d, want 1", s2.max)
	}
}

// neighborOf is the weight vector newMove's move produces on a copy of w.
func neighborOf(w spf.Weights, up, down graph.EdgeID, step, wMax int) (spf.Weights, bool) {
	mv, changed := newMove(w, up, down, step, wMax)
	nw := w.Clone()
	mv.apply(nw)
	return nw, changed
}

// arcsInvariant is the prune's per-arc bound over an explicit candidate
// vector cw: every listed arc must be certified against trees.
func arcsInvariant(trees *spf.DeltaRouter, w, cw spf.Weights, arcs []graph.EdgeID) bool {
	for _, a := range arcs {
		if !trees.ArcInvariant(a, w[a], cw[a]) {
			return false
		}
	}
	return true
}

func TestNeighborOf(t *testing.T) {
	w := spf.Weights{5, 30, 1, 10}
	mv, changed := newMove(w, 0, 2, 1, 30)
	if !changed || mv != (move{up: 0, down: 2, wUp: 6, wDown: 1}) {
		t.Fatalf("basic move: %+v changed=%v (down already at floor)", mv, changed)
	}
	// Saturated both ends: no change.
	w2 := spf.Weights{30, 1}
	if _, changed := newMove(w2, 0, 1, 1, 30); changed {
		t.Fatal("saturated move reported change")
	}
	// Step overshoot clamps.
	w3 := spf.Weights{29, 2}
	mv3, changed := newMove(w3, 0, 1, 5, 30)
	if !changed || mv3.wUp != 30 || mv3.wDown != 1 {
		t.Fatalf("clamped move: %+v changed=%v", mv3, changed)
	}
	// A weight above wMax is clamped down to it, which counts as a change.
	if mv4, changed := newMove(spf.Weights{35, 1}, 0, 1, 1, 30); !changed || mv4.wUp != 30 {
		t.Fatalf("over-range move: %+v changed=%v", mv4, changed)
	}
	// Applying writes exactly the two arcs; building reads w only.
	nw := w.Clone()
	mv.apply(nw)
	if want := (spf.Weights{6, 30, 1, 10}); !slices.Equal(nw, want) || w[0] != 5 {
		t.Fatalf("apply: %v (input %v), want %v", nw, w, want)
	}
	if got := mv.appendArcs(nil); !slices.Equal(got, []graph.EdgeID{0, 2}) {
		t.Fatalf("two-arc move arcs %v", got)
	}
	if got := (move{up: 3, down: 3, wUp: 7, wDown: 7}).appendArcs(nil); !slices.Equal(got, []graph.EdgeID{3}) {
		t.Fatalf("single-arc move arcs %v", got)
	}
}

func TestDTRTriangleFindsJointOptimum(t *testing.T) {
	e := triangleEvaluator(t)
	res, err := DTR(e, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	// Lexicographic optimum: H direct (ΦH = 1/3), L split over both paths
	// (ΦL = 11/9). See eval tests for the enumeration.
	if math.Abs(res.Best.Primary-1.0/3) > 1e-9 {
		t.Errorf("PhiH = %v, want 1/3", res.Best.Primary)
	}
	if math.Abs(res.Best.Secondary-11.0/9) > 1e-9 {
		t.Errorf("PhiL = %v, want 11/9 (joint optimum)", res.Best.Secondary)
	}
	if res.Evaluations <= 0 {
		t.Error("no evaluations recorded")
	}
}

func TestSTRTriangleFindsLexOptimum(t *testing.T) {
	e := triangleEvaluator(t)
	res, err := STR(e, tinySTRParams())
	if err != nil {
		t.Fatal(err)
	}
	// STR must keep both classes on the direct link: ⟨1/3, 64/9⟩.
	if math.Abs(res.Best.Primary-1.0/3) > 1e-9 {
		t.Errorf("PhiH = %v, want 1/3", res.Best.Primary)
	}
	if math.Abs(res.Best.Secondary-64.0/9) > 1e-9 {
		t.Errorf("PhiL = %v, want 64/9", res.Best.Secondary)
	}
}

func TestDTRNeverWorseThanInitial(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		e := randomEvaluator(t, kind, 11)
		n := e.Graph().NumEdges()
		init, err := e.EvaluateDTR(spf.Uniform(n), spf.Uniform(n))
		if err != nil {
			t.Fatal(err)
		}
		p := tinyParams()
		p.N, p.K = 60, 40
		res, err := DTR(e, p)
		if err != nil {
			t.Fatal(err)
		}
		if init.Objective().Less(res.Best) {
			t.Errorf("kind %v: search worsened the initial solution: %+v -> %+v",
				kind, init.Objective(), res.Best)
		}
	}
}

func TestSTRNeverWorseThanInitial(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		e := randomEvaluator(t, kind, 12)
		init, err := e.EvaluateSTR(spf.Uniform(e.Graph().NumEdges()))
		if err != nil {
			t.Fatal(err)
		}
		p := tinySTRParams()
		p.Iterations = 120
		res, err := STR(e, p)
		if err != nil {
			t.Fatal(err)
		}
		if init.Objective().Less(res.Best) {
			t.Errorf("kind %v: search worsened the initial solution", kind)
		}
	}
}

func TestDTRBeatsSTROnLowPriority(t *testing.T) {
	// The paper's headline: comparable ΦH, (much) lower ΦL under DTR. With
	// small budgets we only assert the direction, on a fixed seed.
	e := randomEvaluator(t, eval.LoadBased, 13)
	pd := tinyParams()
	pd.N, pd.K = 250, 200
	dtr, err := DTR(e, pd)
	if err != nil {
		t.Fatal(err)
	}
	ps := tinySTRParams()
	ps.Iterations = 500
	str, err := STR(e, ps)
	if err != nil {
		t.Fatal(err)
	}
	if dtr.Result.PhiL > str.Result.PhiL*1.02 {
		t.Errorf("DTR PhiL %.4g worse than STR PhiL %.4g", dtr.Result.PhiL, str.Result.PhiL)
	}
	// High-priority performance comparable (RH ≈ 1 in the paper).
	if dtr.Result.PhiH > str.Result.PhiH*1.25 {
		t.Errorf("DTR PhiH %.4g much worse than STR PhiH %.4g", dtr.Result.PhiH, str.Result.PhiH)
	}
}

func TestDTRDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *DTRResult {
		e := randomEvaluator(t, eval.LoadBased, 14)
		p := tinyParams()
		p.N, p.K = 80, 60
		p.Workers = workers
		res, err := DTR(e, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(2)
	if a.Best != b.Best {
		t.Fatalf("same seed, different results: %+v vs %+v", a.Best, b.Best)
	}
	for i := range a.WH {
		if a.WH[i] != b.WH[i] || a.WL[i] != b.WL[i] {
			t.Fatalf("same seed, different weights at arc %d", i)
		}
	}
	if a.Best != c.Best {
		t.Fatalf("worker count changed result: %+v vs %+v", a.Best, c.Best)
	}
}

func TestSTRDeterministic(t *testing.T) {
	run := func(workers int) *STRResult {
		e := randomEvaluator(t, eval.LoadBased, 15)
		p := tinySTRParams()
		p.Iterations = 150
		p.Workers = workers
		res, err := STR(e, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(2)
	if a.Best != b.Best || a.Best != c.Best {
		t.Fatalf("nondeterministic STR: %+v / %+v / %+v", a.Best, b.Best, c.Best)
	}
}

func TestSTRRelaxedRecords(t *testing.T) {
	e := randomEvaluator(t, eval.LoadBased, 16)
	p := tinySTRParams()
	p.Iterations = 300
	p.Epsilons = []float64{0.05, 0.30}
	res, err := STR(e, p)
	if err != nil {
		t.Fatal(err)
	}
	r5, ok5 := res.Relaxed[0.05]
	r30, ok30 := res.Relaxed[0.30]
	if !ok5 || !ok30 || !r5.Found || !r30.Found {
		t.Fatalf("missing relaxed records: %+v", res.Relaxed)
	}
	// The strict best is itself a feasible relaxed solution, so relaxed ΦL
	// can only be equal or lower; and a looser ε can only help further.
	if r5.PhiL > res.Result.PhiL+1e-9 {
		t.Errorf("relaxed(5%%) PhiL %v worse than strict %v", r5.PhiL, res.Result.PhiL)
	}
	if r30.PhiL > r5.PhiL+1e-9 {
		t.Errorf("relaxed(30%%) PhiL %v worse than relaxed(5%%) %v", r30.PhiL, r5.PhiL)
	}
	if len(r5.W) != e.Graph().NumEdges() {
		t.Errorf("relaxed record missing weights")
	}
	// Each record's costs are read off the search's scores; they must be
	// bitwise the fresh evaluation of its weights.
	for eps, rec := range res.Relaxed {
		full, err := e.EvaluateSTR(rec.W)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rec.PhiH) != math.Float64bits(full.PhiH) || math.Float64bits(rec.PhiL) != math.Float64bits(full.PhiL) {
			t.Errorf("relaxed(%v) record ⟨%v, %v⟩, fresh evaluation ⟨%v, %v⟩", eps, rec.PhiH, rec.PhiL, full.PhiH, full.PhiL)
		}
	}
	// ε-relaxation is load-based: an SLA run keeps no record.
	sla, err := STR(randomEvaluator(t, eval.SLABased, 16), p)
	if err != nil {
		t.Fatal(err)
	}
	for eps, rec := range sla.Relaxed {
		if rec.Found {
			t.Errorf("SLA run found a relaxed(%v) record", eps)
		}
	}
}

func TestDTRInputValidation(t *testing.T) {
	e := triangleEvaluator(t)
	p := tinyParams()
	p.Neighbors = 100 // exceeds arc count
	if _, err := DTR(e, p); err == nil {
		t.Error("oversized neighborhood accepted")
	}
	p = tinyParams()
	if _, err := DTRFrom(e, spf.Uniform(2), spf.Uniform(6), p); err == nil {
		t.Error("short WH accepted")
	}
	bad := spf.Uniform(6)
	bad[0] = 0
	if _, err := DTRFrom(e, spf.Uniform(6), bad, p); err == nil {
		t.Error("zero weight in WL accepted")
	}
}

func TestSTRInputValidation(t *testing.T) {
	e := triangleEvaluator(t)
	if _, err := STRFrom(e, spf.Uniform(3), tinySTRParams()); err == nil {
		t.Error("short weights accepted")
	}
	p := tinySTRParams()
	p.Candidates = 0
	if _, err := STR(e, p); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestDTRZeroBudgetReturnsInitial(t *testing.T) {
	e := triangleEvaluator(t)
	p := tinyParams()
	p.N, p.K = 0, 0
	res, err := DTR(e, p)
	if err != nil {
		t.Fatal(err)
	}
	// Unit weights: both classes direct; the known STR values.
	if math.Abs(res.Best.Primary-1.0/3) > 1e-9 || math.Abs(res.Best.Secondary-64.0/9) > 1e-9 {
		t.Fatalf("zero-budget result = %+v, want initial ⟨1/3, 64/9⟩", res.Best)
	}
}

func TestDTRSLAInstanceRuns(t *testing.T) {
	e := randomEvaluator(t, eval.SLABased, 17)
	p := tinyParams()
	p.N, p.K = 60, 40
	res, err := DTR(e, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.LinkDelay == nil {
		t.Fatal("SLA run missing link delays")
	}
	if res.Best.Primary < 0 {
		t.Fatalf("negative Lambda %v", res.Best.Primary)
	}
}
