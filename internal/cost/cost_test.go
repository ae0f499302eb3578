package cost

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestPhiExactValuesFromPaper(t *testing.T) {
	// The §3.3.1 triangle example gives exact rational values.
	// High priority: 1/3 units on a unit-capacity link costs 1/3.
	if got := Phi(1.0/3, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Phi(1/3, 1) = %v, want 1/3", got)
	}
	// Low priority: 2/3 units against residual 2/3 costs 64/9.
	if got := Phi(2.0/3, 2.0/3); math.Abs(got-64.0/9) > 1e-12 {
		t.Fatalf("Phi(2/3, 2/3) = %v, want 64/9", got)
	}
	// Split case: 1/3 units against residual 5/6 costs 4/9.
	if got := Phi(1.0/3, 5.0/6); math.Abs(got-4.0/9) > 1e-12 {
		t.Fatalf("Phi(1/3, 5/6) = %v, want 4/9", got)
	}
}

func TestPhiSegments(t *testing.T) {
	const c = 300.0
	cases := []struct {
		util float64
		want float64
	}{
		{0.2, 0.2 * c},                      // segment 1: Φ = x
		{0.5, 3*0.5*c - 2.0/3*c},            // segment 2
		{0.8, 10*0.8*c - 16.0/3*c},          // segment 3
		{0.95, 70*0.95*c - 178.0/3*c},       // segment 4
		{1.05, 500*1.05*c - 1468.0/3*c},     // segment 5
		{1.5, 5000*1.5*c - 16318.0/3*c},     // segment 6
		{11.0 / 10, 500*1.1*c - 1468.0/3*c}, // boundary belongs to lower segment
	}
	for _, tc := range cases {
		if got := Phi(tc.util*c, c); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Phi(util=%.3f) = %g, want %g", tc.util, got, tc.want)
		}
	}
}

func TestPhiZeroLoadAndZeroCapacity(t *testing.T) {
	if got := Phi(0, 100); got != 0 {
		t.Fatalf("Phi(0, 100) = %g", got)
	}
	if got := Phi(-1, 100); got != 0 {
		t.Fatalf("Phi(-1, 100) = %g, want 0", got)
	}
	if got := Phi(2, 0); got != 10000 {
		t.Fatalf("Phi(2, 0) = %g, want 10000 (steepest slope)", got)
	}
}

func TestPhiContinuityAtBreakpoints(t *testing.T) {
	const c = 500.0
	const eps = 1e-9
	// Crossing a breakpoint by 2·eps·c load can legitimately change the cost
	// by slope·2·eps·c; anything beyond that is a jump.
	const maxSlope = 5000.0
	tol := 2*maxSlope*eps*c + 1e-6
	for _, b := range []float64{1.0 / 3, 2.0 / 3, 9.0 / 10, 1, 11.0 / 10} {
		lo := Phi((b-eps)*c, c)
		hi := Phi((b+eps)*c, c)
		if math.Abs(hi-lo) > tol {
			t.Errorf("discontinuity at u=%.4f: %g vs %g", b, lo, hi)
		}
	}
}

// TestPhiMonotoneConvex: Phi is nondecreasing and convex in load for any
// capacity — properties the local search relies on.
func TestPhiMonotoneConvex(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		c := 1 + rng.Float64()*999
		x1 := rng.Float64() * 2 * c
		x2 := x1 + rng.Float64()*c
		p1, p2 := Phi(x1, c), Phi(x2, c)
		tol := 1e-9 * (math.Abs(p1) + math.Abs(p2) + 1)
		if p1 > p2+tol {
			return false // not monotone
		}
		// Convexity: midpoint below chord.
		mid := Phi((x1+x2)/2, c)
		chord := (p1 + p2) / 2
		return mid <= chord+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPhiDerivative(t *testing.T) {
	if got := PhiDerivative(10, 100); got != 1 {
		t.Fatalf("slope at 10%% = %g", got)
	}
	if got := PhiDerivative(95, 100); got != 70 {
		t.Fatalf("slope at 95%% = %g", got)
	}
	if got := PhiDerivative(200, 100); got != 5000 {
		t.Fatalf("slope at 200%% = %g", got)
	}
	if got := PhiDerivative(5, 0); got != 5000 {
		t.Fatalf("slope at zero capacity = %g", got)
	}
}

func TestResidual(t *testing.T) {
	if got := Residual(500, 200); got != 300 {
		t.Fatalf("Residual = %g", got)
	}
	if got := Residual(500, 700); got != 0 {
		t.Fatalf("over-capacity residual = %g, want 0", got)
	}
	if got := Residual(500, 500); got != 0 {
		t.Fatalf("exact residual = %g, want 0", got)
	}
}

func TestLexOrdering(t *testing.T) {
	cases := []struct {
		l, r Lex
		want int
	}{
		{Lex{1, 9}, Lex{2, 0}, -1}, // primary dominates
		{Lex{2, 0}, Lex{1, 9}, 1},
		{Lex{1, 1}, Lex{1, 2}, -1}, // secondary breaks ties
		{Lex{1, 2}, Lex{1, 2}, 0},
	}
	for _, tc := range cases {
		if got := tc.l.Compare(tc.r); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.l, tc.r, got, tc.want)
		}
	}
	if !(Lex{0, 1}).Less(Lex{0, 2}) {
		t.Fatal("Less on secondary failed")
	}
}

// TestLexTransitive: lexicographic order must be a strict weak order.
func TestLexTransitive(t *testing.T) {
	f := func(a1, a2, b1, b2, c1, c2 float64) bool {
		a, b, c := Lex{a1, a2}, Lex{b1, b2}, Lex{c1, c2}
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		if a.Less(b) && b.Less(a) {
			return false // asymmetry
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultSLA(t *testing.T) {
	s := DefaultSLA()
	if s.ThetaMs != 25 || s.PenaltyA != 100 || s.PenaltyB != 1 {
		t.Fatalf("defaults = %+v", s)
	}
}

func TestPairPenalty(t *testing.T) {
	s := DefaultSLA()
	if got := s.PairPenalty(20); got != 0 {
		t.Fatalf("penalty within bound = %g", got)
	}
	if got := s.PairPenalty(25); got != 0 {
		t.Fatalf("penalty at bound = %g, want 0", got)
	}
	if got := s.PairPenalty(30); got != 105 {
		t.Fatalf("penalty 5ms over = %g, want 105 (a=100 + b*5)", got)
	}
	if got := s.PairPenalty(math.Inf(1)); !math.IsInf(got, 1) {
		t.Fatalf("penalty for unreachable = %g, want +Inf", got)
	}
}

func TestLinkDelayExact(t *testing.T) {
	s := DefaultSLA()
	// Unloaded 500 Mbps link: delay = transmission + propagation.
	want := 8000.0/(500*1000) + 10
	if got := s.LinkDelayExact(0, 500, 10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("unloaded delay = %g, want %g", got, want)
	}
	// At 50% load the M/M/1 factor doubles the queueing term.
	want = 8000.0 / (500 * 1000) * 2 // + 0 propagation
	if got := s.LinkDelayExact(250, 500, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("half-load delay = %g, want %g", got, want)
	}
	if got := s.LinkDelayExact(500, 500, 0); !math.IsInf(got, 1) {
		t.Fatalf("saturated exact delay = %g, want +Inf", got)
	}
}

func TestLinkDelayApproxTracksExact(t *testing.T) {
	// In the stable region the Φ/C approximation from [18] should stay
	// within a small factor of the exact M/M/1 delay.
	s := DefaultSLA()
	for _, util := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		h := util * 500
		exact := s.LinkDelayExact(h, 500, 0)
		approx := s.LinkDelayApprox(Phi(h, 500), 500, 0)
		ratio := approx / exact
		if ratio < 0.3 || ratio > 3.5 {
			t.Errorf("util %.1f: approx/exact = %.2f (approx %g, exact %g)", util, ratio, approx, exact)
		}
	}
}

func TestLinkDelayApproxFiniteWhenOverloaded(t *testing.T) {
	s := DefaultSLA()
	got := s.LinkDelayApprox(Phi(600, 500), 500, 5)
	if math.IsInf(got, 1) || got <= 5 {
		t.Fatalf("overloaded approx delay = %g, want finite > propagation", got)
	}
}

func TestRelaxed(t *testing.T) {
	s := DefaultSLA()
	r := s.Relaxed(0.2)
	if math.Abs(r.ThetaMs-30) > 1e-12 {
		t.Fatalf("relaxed theta = %g, want 30", r.ThetaMs)
	}
	if s.ThetaMs != 25 {
		t.Fatal("Relaxed mutated receiver")
	}
}
