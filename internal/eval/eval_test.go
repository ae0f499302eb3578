package eval

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dualtopo/internal/cost"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// triangleInstance builds the §3.3.1 example: 3 nodes, unit-capacity links,
// 1/3 high- and 2/3 low-priority units from A(0) to C(2).
func triangleInstance(t *testing.T) (*graph.Graph, *traffic.Matrix, *traffic.Matrix) {
	t.Helper()
	g := graph.New(3)
	g.AddLink(0, 1, 1, 1) // A-B
	g.AddLink(1, 2, 1, 1) // B-C
	g.AddLink(0, 2, 1, 1) // A-C
	th := traffic.NewMatrix(3)
	th.Set(0, 2, 1.0/3)
	tl := traffic.NewMatrix(3)
	tl.Set(0, 2, 2.0/3)
	return g, th, tl
}

func mustEval(t *testing.T, g *graph.Graph, th, tl *traffic.Matrix, opts Options) *Evaluator {
	t.Helper()
	e, err := New(g, th, tl, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func arcWeight(t *testing.T, g *graph.Graph, w spf.Weights, u, v graph.NodeID, x int) {
	t.Helper()
	id, ok := g.ArcBetween(u, v)
	if !ok {
		t.Fatalf("no arc %d->%d", u, v)
	}
	w[id] = x
}

func TestTrianglePaperValuesDirect(t *testing.T) {
	g, th, tl := triangleInstance(t)
	e := mustEval(t, g, th, tl, DefaultOptions())
	// Unit weights: the one-hop path A-C wins; both classes share it.
	r, err := e.EvaluateSTR(spf.Uniform(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PhiH-1.0/3) > 1e-12 {
		t.Errorf("PhiH = %v, want 1/3 (paper §3.3.1)", r.PhiH)
	}
	if math.Abs(r.PhiL-64.0/9) > 1e-12 {
		t.Errorf("PhiL = %v, want 64/9 (paper §3.3.1)", r.PhiL)
	}
}

func TestTrianglePaperValuesSplit(t *testing.T) {
	g, th, tl := triangleInstance(t)
	e := mustEval(t, g, th, tl, DefaultOptions())
	// wAC = 2 equalizes the direct and two-hop paths: even ECMP split.
	w := spf.Uniform(g.NumEdges())
	arcWeight(t, g, w, 0, 2, 2)
	r, err := e.EvaluateSTR(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PhiH-1.0/2) > 1e-12 {
		t.Errorf("PhiH = %v, want 1/2 (paper §3.3.1)", r.PhiH)
	}
	if math.Abs(r.PhiL-4.0/3) > 1e-12 {
		t.Errorf("PhiL = %v, want 4/3 (paper §3.3.1)", r.PhiL)
	}
}

func TestTriangleDTRSeparatesClasses(t *testing.T) {
	g, th, tl := triangleInstance(t)
	e := mustEval(t, g, th, tl, DefaultOptions())
	wH := spf.Uniform(g.NumEdges()) // H direct on A-C
	wL := spf.Uniform(g.NumEdges())
	arcWeight(t, g, wL, 0, 2, 3) // L forced around via B
	r, err := e.EvaluateDTR(wH, wL)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PhiH-1.0/3) > 1e-12 {
		t.Errorf("PhiH = %v, want 1/3", r.PhiH)
	}
	// L rides A-B-C on full residual capacity 1: 2 * Phi(2/3, 1) = 8/3,
	// already well below the 64/9 it suffers sharing A-C under STR.
	if math.Abs(r.PhiL-8.0/3) > 1e-12 {
		t.Errorf("PhiL = %v, want 8/3", r.PhiL)
	}
}

func TestTriangleDTROptimum(t *testing.T) {
	// The jointly optimal DTR routing keeps H direct and splits L over both
	// paths: PhiL = Phi(1/3, 2/3) + 2*Phi(1/3, 1) = 5/9 + 2/3 = 11/9.
	g, th, tl := triangleInstance(t)
	e := mustEval(t, g, th, tl, DefaultOptions())
	wH := spf.Uniform(g.NumEdges())
	wL := spf.Uniform(g.NumEdges())
	arcWeight(t, g, wL, 0, 2, 2) // equal-cost split for L
	r, err := e.EvaluateDTR(wH, wL)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PhiH-1.0/3) > 1e-12 {
		t.Errorf("PhiH = %v, want 1/3", r.PhiH)
	}
	if math.Abs(r.PhiL-11.0/9) > 1e-12 {
		t.Errorf("PhiL = %v, want 11/9", r.PhiL)
	}
}

func TestSTRAndDTRAgreeOnEqualWeights(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		g, err := topo.Random(12, 30, 500, rng)
		if err != nil {
			return true
		}
		topo.AssignUniformDelays(g, 1.2, 15, rng)
		tl := traffic.Gravity(12, rng)
		th, err := traffic.RandomHighPriority(12, 0.15, 0.3, tl.Total(), rng)
		if err != nil {
			return false
		}
		for _, kind := range []Kind{LoadBased, SLABased} {
			opts := DefaultOptions()
			opts.Kind = kind
			e, err := New(g, th, tl, opts)
			if err != nil {
				return false
			}
			w := make(spf.Weights, g.NumEdges())
			for i := range w {
				w[i] = 1 + rng.IntN(30)
			}
			str, err := e.EvaluateSTR(w)
			if err != nil {
				return false
			}
			dtr, err := e.EvaluateDTR(w, w)
			if err != nil {
				return false
			}
			if math.Abs(str.PhiH-dtr.PhiH) > 1e-9 || math.Abs(str.PhiL-dtr.PhiL) > 1e-9 {
				return false
			}
			if math.Abs(str.Lambda-dtr.Lambda) > 1e-9 || str.Violations != dtr.Violations {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectiveHMatchesFullEvaluation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 33))
		g, err := topo.Random(10, 25, 500, rng)
		if err != nil {
			return true
		}
		topo.AssignUniformDelays(g, 1.2, 15, rng)
		tl := traffic.Gravity(10, rng)
		th, err := traffic.RandomHighPriority(10, 0.2, 0.3, tl.Total(), rng)
		if err != nil {
			return false
		}
		for _, kind := range []Kind{LoadBased, SLABased} {
			opts := DefaultOptions()
			opts.Kind = kind
			e, err := New(g, th, tl, opts)
			if err != nil {
				return false
			}
			wL := randomW(g.NumEdges(), rng)
			wH1 := randomW(g.NumEdges(), rng)
			wH2 := randomW(g.NumEdges(), rng)
			// FindH's score as the search reads it: the DTR state sits at
			// the incumbent (wH1, wL), the high class alone moves to wH2,
			// and the objective is read off the state.
			st := e.State(RouteDTR)
			if _, err := st.Move([2]spf.Weights{wH1, wL}); err != nil {
				return false
			}
			if _, err := st.Move([2]spf.Weights{High: wH2}); err != nil {
				return false
			}
			fast := cost.Lex{Primary: st.PhiH(), Secondary: st.PhiL()}
			if kind == SLABased {
				fast.Primary, _, _ = st.Penalties()
			}
			full, err := e.EvaluateDTR(wH2, wL)
			if err != nil {
				return false
			}
			if fast != full.Objective() {
				t.Errorf("seed %d, %v: FindH score %+v, full %+v", seed, kind, fast, full.Objective())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectiveLMatchesFullEvaluation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 55))
	g, err := topo.Random(10, 25, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	tl := traffic.Gravity(10, rng)
	th, err := traffic.RandomHighPriority(10, 0.2, 0.3, tl.Total(), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEval(t, g, th, tl, DefaultOptions())
	wH := randomW(g.NumEdges(), rng)
	wL1 := randomW(g.NumEdges(), rng)
	wL2 := randomW(g.NumEdges(), rng)
	base, err := e.EvaluateDTR(wH, wL1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := e.ObjectiveL(wL2, base.Residual)
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.EvaluateDTR(wH, wL2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast-full.PhiL) > 1e-9 {
		t.Fatalf("ObjectiveL = %v, full PhiL = %v", fast, full.PhiL)
	}
}

func TestSLAViolationAccounting(t *testing.T) {
	// Line A(0)-B(1)-C(2); propagation 10ms per hop; θ=15ms: the 2-hop pair
	// violates by ~5ms, the 1-hop pair does not.
	g := graph.New(3)
	g.AddLink(0, 1, 500, 10)
	g.AddLink(1, 2, 500, 10)
	th := traffic.NewMatrix(3)
	th.Set(0, 2, 10) // 2 hops: ~20ms
	th.Set(1, 2, 10) // 1 hop: ~10ms
	tl := traffic.NewMatrix(3)
	tl.Set(0, 2, 20)
	opts := Options{Kind: SLABased, SLA: cost.SLA{ThetaMs: 15, PenaltyA: 100, PenaltyB: 1, PacketSizeBits: 8000}}
	e := mustEval(t, g, th, tl, opts)
	r, err := e.EvaluateSTR(spf.Uniform(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Violations != 1 {
		t.Fatalf("Violations = %d, want 1", r.Violations)
	}
	// Penalty ≈ 100 + (20 + queueing − 15); queueing is microseconds here.
	if r.Lambda < 105 || r.Lambda > 105.1 {
		t.Fatalf("Lambda = %v, want ~105", r.Lambda)
	}
	if len(r.PairDelays) != 2 {
		t.Fatalf("PairDelays = %v, want 2 entries", r.PairDelays)
	}
	lex := r.Objective()
	if lex.Primary != r.Lambda || lex.Secondary != r.PhiL {
		t.Fatalf("Objective = %+v", lex)
	}
}

func TestLoadObjectiveAndLinkCost(t *testing.T) {
	g, th, tl := triangleInstance(t)
	e := mustEval(t, g, th, tl, DefaultOptions())
	r, err := e.EvaluateSTR(spf.Uniform(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	lex := r.Objective()
	if lex.Primary != r.PhiH || lex.Secondary != r.PhiL {
		t.Fatalf("Objective = %+v, want {PhiH, PhiL}", lex)
	}
	ac, _ := g.ArcBetween(0, 2)
	lc := r.LinkCost(ac)
	if lc.Primary != r.LinkPhiH[ac] || lc.Secondary != r.LinkPhiL[ac] {
		t.Fatalf("LinkCost = %+v", lc)
	}
}

func TestUtilizationMetrics(t *testing.T) {
	g, th, tl := triangleInstance(t)
	e := mustEval(t, g, th, tl, DefaultOptions())
	r, err := e.EvaluateSTR(spf.Uniform(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	u := r.Utilization(g)
	ac, _ := g.ArcBetween(0, 2)
	if math.Abs(u[ac]-1.0) > 1e-12 {
		t.Fatalf("util[AC] = %v, want 1.0", u[ac])
	}
	if got := r.MaxUtilization(g); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("MaxUtilization = %v, want 1.0", got)
	}
	// 6 arcs, one carrying util 1.0: average = 1/6.
	if got := r.AvgUtilization(g); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("AvgUtilization = %v, want 1/6", got)
	}
	hu := r.HUtilization(g)
	if math.Abs(hu[ac]-1.0/3) > 1e-12 {
		t.Fatalf("H-util[AC] = %v, want 1/3", hu[ac])
	}
}

func TestHighPriorityPairs(t *testing.T) {
	g, th, tl := triangleInstance(t)
	e := mustEval(t, g, th, tl, DefaultOptions())
	pairs := e.HighPriorityPairs()
	if len(pairs) != 1 || pairs[0] != (Pair{0, 2}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestNewErrors(t *testing.T) {
	g, th, tl := triangleInstance(t)
	if _, err := New(g, traffic.NewMatrix(5), tl, DefaultOptions()); err == nil {
		t.Error("size mismatch accepted")
	}
	disc := graph.New(4)
	disc.AddLink(0, 1, 1, 0)
	disc.AddLink(2, 3, 1, 0)
	if _, err := New(disc, traffic.NewMatrix(4), traffic.NewMatrix(4), DefaultOptions()); err == nil {
		t.Error("disconnected graph accepted")
	}
	_ = th
}

func TestCloneIsIndependent(t *testing.T) {
	g, th, tl := triangleInstance(t)
	e := mustEval(t, g, th, tl, DefaultOptions())
	c := e.Clone()
	w := spf.Uniform(g.NumEdges())
	r1, err := e.EvaluateSTR(w)
	if err != nil {
		t.Fatal(err)
	}
	// Using the clone concurrently-ish must not disturb e's results.
	w2 := spf.Uniform(g.NumEdges())
	arcWeight(t, g, w2, 0, 2, 5)
	if _, err := c.EvaluateSTR(w2); err != nil {
		t.Fatal(err)
	}
	r2, err := e.EvaluateSTR(w)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PhiH != r2.PhiH || r1.PhiL != r2.PhiL {
		t.Fatal("clone interfered with original evaluator")
	}
}

func TestKindString(t *testing.T) {
	if LoadBased.String() != "load" || SLABased.String() != "sla" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestExactDelayOption(t *testing.T) {
	g := graph.New(2)
	g.AddLink(0, 1, 500, 5)
	th := traffic.NewMatrix(2)
	th.Set(0, 1, 250) // 50% H load
	tl := traffic.NewMatrix(2)
	tl.Set(0, 1, 50)
	opts := Options{Kind: SLABased, SLA: cost.DefaultSLA(), ExactDelay: true}
	e := mustEval(t, g, th, tl, opts)
	r, err := e.EvaluateSTR(spf.Uniform(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	a01, _ := g.ArcBetween(0, 1)
	want := cost.DefaultSLA().LinkDelayExact(250, 500, 5)
	if math.Abs(r.LinkDelay[a01]-want) > 1e-12 {
		t.Fatalf("exact LinkDelay = %v, want %v", r.LinkDelay[a01], want)
	}
}

// TestPartialRefreshMatchesFull pins the search's incremental accept: a
// dual-topology state moved by one class's weights (FindH's, then FindL's
// accept) reads off an incumbent Result — refilled in place — that equals
// EvaluateDTR at the state's weights in every field, bitwise.
func TestPartialRefreshMatchesFull(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 71))
		g, err := topo.Random(10, 25, 500, rng)
		if err != nil {
			return true
		}
		topo.AssignUniformDelays(g, 1.2, 15, rng)
		tl := traffic.Gravity(10, rng)
		th, err := traffic.RandomHighPriority(10, 0.2, 0.3, tl.Total(), rng)
		if err != nil {
			return false
		}
		tight := cost.DefaultSLA()
		tight.ThetaMs = 8 // a bound most pairs violate: ViolationMass must carry over
		for _, opts := range []Options{
			DefaultOptions(),
			{Kind: SLABased, SLA: cost.DefaultSLA()},
			{Kind: SLABased, SLA: tight},
		} {
			e, err := New(g, th, tl, opts)
			if err != nil {
				return false
			}
			wH1, wH2 := randomW(g.NumEdges(), rng), randomW(g.NumEdges(), rng)
			wL1, wL2 := randomW(g.NumEdges(), rng), randomW(g.NumEdges(), rng)
			st := newRoutingState(e, RouteDTR)
			var inc Result
			for _, step := range []struct {
				class  int // the class moved; -1 for both
				wH, wL spf.Weights
			}{
				{-1, wH1, wL1},   // the initial route
				{High, wH2, wL1}, // a FindH accept
				{Low, wH2, wL2},  // a FindL accept
			} {
				w := [2]spf.Weights{step.wH, step.wL}
				if step.class >= 0 {
					w[1-step.class] = nil // stays where it is
				}
				if _, err := st.Move(w); err != nil {
					return false
				}
				st.ResultInto(&inc)
				full, err := e.EvaluateDTR(step.wH, step.wL)
				if err != nil {
					return false
				}
				if opts.SLA == tight && full.ViolationMass == 0 {
					t.Errorf("seed %d: the tight SLA left no pair violating", seed)
					return false
				}
				if !resultsEqual(&inc, full) {
					t.Errorf("seed %d, %v: the state's incumbent differs from EvaluateDTR", seed, opts.Kind)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// resultsEqual compares every field of two Results bitwise.
func resultsEqual(a, b *Result) bool {
	scalars := func(r *Result) []float64 { return []float64{r.PhiH, r.PhiL, r.Lambda, r.ViolationMass} }
	return a.Violations == b.Violations && a.kind == b.kind && bitsEqual(scalars(a), scalars(b)) &&
		bitsEqual(a.HLoads, b.HLoads) && bitsEqual(a.LLoads, b.LLoads) && bitsEqual(a.Residual, b.Residual) &&
		bitsEqual(a.LinkPhiH, b.LinkPhiH) && bitsEqual(a.LinkPhiL, b.LinkPhiL) &&
		bitsEqual(a.LinkDelay, b.LinkDelay) && bitsEqual(a.PairDelays, b.PairDelays)
}

func randomW(n int, rng *rand.Rand) spf.Weights {
	w := make(spf.Weights, n)
	for i := range w {
		w[i] = 1 + rng.IntN(30)
	}
	return w
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{LoadBased, SLABased} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, s := range []string{"", "fastest", "LOAD", "Kind(2)"} {
		if _, err := ParseKind(s); err == nil {
			t.Errorf("ParseKind(%q) accepted", s)
		}
	}
	if _, err := ParseKind("fastest"); err == nil || err.Error() != `unknown objective "fastest" (load|sla)` {
		t.Errorf("ParseKind(fastest) error = %v", err)
	}
}
