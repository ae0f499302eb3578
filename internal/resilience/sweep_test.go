package resilience

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// testEvaluator builds a 20-node random instance with gravity low-priority
// demand (every node active) and a sparse high-priority overlay.
func testEvaluator(t *testing.T, seed uint64) *eval.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 2))
	g, err := topo.Random(20, 40, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	topo.AssignUniformDelays(g, 1, 10, rng)
	tl := traffic.Gravity(20, rng)
	th, err := traffic.RandomHighPriority(20, 0.2, 0.3, tl.Total(), rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := eval.New(g, th, tl, eval.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randWeights(n int, rng *rand.Rand) spf.Weights {
	w := make(spf.Weights, n)
	for i := range w {
		w[i] = 1 + rng.IntN(20)
	}
	return w
}

// fullSweep is the from-scratch reference sweep: the intact network and
// every state evaluated with EvaluateSTR (wL nil) or EvaluateDTR on
// WithFailedArcs copies, a state whose evaluation fails marked
// disconnecting.
func fullSweep(t *testing.T, e *eval.Evaluator, states []State, wH, wL spf.Weights) *Sweep {
	t.Helper()
	phiL := func(failed ...graph.EdgeID) (float64, error) {
		var r *eval.Result
		var err error
		if wL == nil {
			r, err = e.EvaluateSTR(wH.WithFailedArcs(failed...))
		} else {
			r, err = e.EvaluateDTR(wH.WithFailedArcs(failed...), wL.WithFailedArcs(failed...))
		}
		if err != nil {
			return 0, err
		}
		return r.PhiL, nil
	}
	base, err := phiL()
	if err != nil {
		t.Fatal(err)
	}
	sw := &Sweep{Base: base, PhiL: make([]float64, len(states))}
	for i, st := range states {
		v, err := phiL(st.Arcs...)
		sw.record(i, v, err == nil)
	}
	return sw
}

// equalSweeps asserts bitwise equality, treating NaN (disconnecting) as
// equal to NaN at the same position.
func equalSweeps(t *testing.T, name string, delta, full *Sweep) {
	t.Helper()
	if delta.Base != full.Base {
		t.Fatalf("%s: base ΦL delta %v != full %v", name, delta.Base, full.Base)
	}
	if delta.Survivors != full.Survivors || delta.Disconnecting != full.Disconnecting {
		t.Fatalf("%s: partition delta %d/%d != full %d/%d", name,
			delta.Survivors, delta.Disconnecting, full.Survivors, full.Disconnecting)
	}
	for i := range delta.PhiL {
		d, f := delta.PhiL[i], full.PhiL[i]
		if math.IsNaN(d) != math.IsNaN(f) {
			t.Fatalf("%s: state %d disconnection disagrees (delta %v, full %v)", name, i, d, f)
		}
		if !math.IsNaN(d) && d != f {
			t.Fatalf("%s: state %d ΦL delta %v != full %v", name, i, d, f)
		}
	}
}

// TestDeltaSweepEqualsFullAcrossModels is the engine's core property: for
// every failure model, threading states through the delta path (disable →
// delta objective → repair) is bitwise-identical to evaluating each failed
// topology from scratch — including which states disconnect.
func TestDeltaSweepEqualsFullAcrossModels(t *testing.T) {
	e := testEvaluator(t, 7)
	g := e.Graph()
	rng := rand.New(rand.NewPCG(11, 3))
	wSTR := randWeights(g.NumEdges(), rng)
	wH := randWeights(g.NumEdges(), rng)
	wL := randWeights(g.NumEdges(), rng)

	models := []Model{
		{Kind: KindLink, Count: 1},
		{Kind: KindLink, Count: 2, Sample: 25, Seed: 5},
		{Kind: KindNode},
		{Kind: KindSRLG, SRLGs: [][]int{{0, 1}, {2, 3, 4}, {10, 20, 30}}},
	}
	delta := NewSweeper(e, Options{})
	verify := NewSweeper(e, Options{Verify: true})
	for _, m := range models {
		states, err := Enumerate(g, m)
		if err != nil {
			t.Fatal(err)
		}
		name := m.String()

		ds, err := delta.SweepSTR(wSTR, states)
		if err != nil {
			t.Fatalf("%s: delta STR sweep: %v", name, err)
		}
		equalSweeps(t, name+"/STR", ds, fullSweep(t, e, states, wSTR, nil))

		dd, err := delta.SweepDTR(wH, wL, states)
		if err != nil {
			t.Fatalf("%s: delta DTR sweep: %v", name, err)
		}
		equalSweeps(t, name+"/DTR", dd, fullSweep(t, e, states, wH, wL))

		// Verify mode asserts the same property internally, per state.
		if _, err := verify.SweepSTR(wSTR, states); err != nil {
			t.Fatalf("%s: verify STR sweep: %v", name, err)
		}
		if _, err := verify.SweepDTR(wH, wL, states); err != nil {
			t.Fatalf("%s: verify DTR sweep: %v", name, err)
		}
	}
}

// TestSweeperReusableAcrossRoutings moves one sweeper across several weight
// settings (the robust-search access pattern) and checks every sweep still
// matches full evaluation after repeated Disabled failure/repair cycles.
func TestSweeperReusableAcrossRoutings(t *testing.T) {
	e := testEvaluator(t, 13)
	g := e.Graph()
	states, err := Enumerate(g, Model{Kind: KindLink, Count: 1, Sample: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	delta := NewSweeper(e, Options{})
	rng := rand.New(rand.NewPCG(17, 4))
	wH := randWeights(g.NumEdges(), rng)
	wL := randWeights(g.NumEdges(), rng)
	for round := 0; round < 5; round++ {
		ds, err := delta.SweepDTR(wH, wL, states)
		if err != nil {
			t.Fatal(err)
		}
		equalSweeps(t, "round", ds, fullSweep(t, e, states, wH, wL))
		// Mutate a few weights, as candidate evaluation does.
		for k := 0; k < 3; k++ {
			wH[rng.IntN(len(wH))] = 1 + rng.IntN(20)
			wL[rng.IntN(len(wL))] = 1 + rng.IntN(20)
		}
	}
}

// pendantInstance is a ring 0-1-2-3 with node 4 hanging off node 0. Demand
// runs 1→2 (high priority) and 2→1, 4→1 (low priority), so some failures
// partition demand and some don't.
func pendantInstance(t *testing.T) *eval.Evaluator {
	t.Helper()
	g := graph.New(5)
	g.AddLink(0, 1, 100, 1)
	g.AddLink(1, 2, 100, 1)
	g.AddLink(2, 3, 100, 1)
	g.AddLink(3, 0, 100, 1)
	g.AddLink(0, 4, 100, 1)
	th := traffic.NewMatrix(5)
	th.Set(1, 2, 10)
	tl := traffic.NewMatrix(5)
	tl.Set(2, 1, 8)
	tl.Set(4, 1, 4)
	e, err := eval.New(g, th, tl, eval.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDisconnectionAccounting covers the partition semantics: node and link
// failures that strand a demand are counted and skipped, failures that only
// strand demand-free nodes survive.
func TestDisconnectionAccounting(t *testing.T) {
	e := pendantInstance(t)
	g := e.Graph()
	w := spf.Uniform(g.NumEdges())
	sw := NewSweeper(e, Options{Verify: true})

	// Single-link failures: only the pendant link 0-4 strands demand (4→1);
	// every ring link has a surviving alternate path.
	states, err := Enumerate(g, Model{Kind: KindLink})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 5 {
		t.Fatalf("states = %d, want 5", len(states))
	}
	fs, err := CompareSchemes(sw, w, w, w, states)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Disconnecting != 1 {
		t.Fatalf("link disconnecting = %d, want 1 (pendant)", fs.Disconnecting)
	}
	if len(fs.STR) != 4 || len(fs.DTR) != 4 || len(fs.Labels) != 4 {
		t.Fatalf("survivors = %d/%d, want 4", len(fs.STR), len(fs.DTR))
	}

	// Node failures: nodes 0 (cuts 4→1), 1, 2, 4 carry demand endpoints or
	// strand them; only node 3's failure leaves every demand routable.
	nodeStates, err := Enumerate(g, Model{Kind: KindNode})
	if err != nil {
		t.Fatal(err)
	}
	nfs, err := CompareSchemes(sw, w, w, w, nodeStates)
	if err != nil {
		t.Fatal(err)
	}
	if nfs.Disconnecting != 4 || len(nfs.STR) != 1 {
		t.Fatalf("node failures: %d disconnecting / %d surviving, want 4/1", nfs.Disconnecting, len(nfs.STR))
	}
	if nfs.Labels[0] != "node n3" {
		t.Fatalf("surviving node state = %q, want node n3", nfs.Labels[0])
	}

	// SRLG failure grouping ring links 1-2 and 2-3 isolates node 2 → the
	// 2→1 demand strands; a group of links 2-3 and 3-0 only isolates the
	// demand-free node 3 → survives.
	srlgStates, err := Enumerate(g, Model{Kind: KindSRLG, SRLGs: [][]int{{1, 2}, {2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	sfs, err := CompareSchemes(sw, w, w, w, srlgStates)
	if err != nil {
		t.Fatal(err)
	}
	if sfs.Disconnecting != 1 || len(sfs.STR) != 1 {
		t.Fatalf("srlg failures: %d disconnecting / %d surviving, want 1/1", sfs.Disconnecting, len(sfs.STR))
	}
}

// TestAllStatesDisconnectedErrors exercises the "every evaluated failure
// disconnected" error path on a 2-node instance whose only link is the only
// path.
func TestAllStatesDisconnectedErrors(t *testing.T) {
	g := graph.New(2)
	g.AddLink(0, 1, 100, 1)
	th := traffic.NewMatrix(2)
	th.Set(0, 1, 5)
	tl := traffic.NewMatrix(2)
	tl.Set(1, 0, 5)
	e, err := eval.New(g, th, tl, eval.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	states, err := Enumerate(g, Model{Kind: KindLink})
	if err != nil {
		t.Fatal(err)
	}
	w := spf.Uniform(g.NumEdges())
	for _, opts := range []Options{{}, {Verify: true}} {
		sw := NewSweeper(e, opts)
		_, err := CompareSchemes(sw, w, w, w, states)
		if err == nil {
			t.Errorf("opts %+v: all-disconnected sweep did not error", opts)
			continue
		}
		// The error must name the offending state, not just report failure.
		if !strings.Contains(err.Error(), states[0].Label) || !strings.Contains(err.Error(), "state 0") {
			t.Errorf("opts %+v: error does not identify the disconnecting state: %v", opts, err)
		}
	}
}

// TestCompareSchemesBaselinesMatchEvaluator pins the baseline contract: the
// sweeper's intact ΦL equals the evaluator's, bitwise.
func TestCompareSchemesBaselinesMatchEvaluator(t *testing.T) {
	e := testEvaluator(t, 23)
	g := e.Graph()
	rng := rand.New(rand.NewPCG(29, 5))
	wSTR := randWeights(g.NumEdges(), rng)
	wH := randWeights(g.NumEdges(), rng)
	wL := randWeights(g.NumEdges(), rng)
	states, err := Enumerate(g, Model{Kind: KindLink, Sample: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := CompareSchemes(NewSweeper(e, Options{}), wSTR, wH, wL, states)
	if err != nil {
		t.Fatal(err)
	}
	strRes, err := e.EvaluateSTR(wSTR)
	if err != nil {
		t.Fatal(err)
	}
	dtrRes, err := e.EvaluateDTR(wH, wL)
	if err != nil {
		t.Fatal(err)
	}
	if fs.BaseSTR != strRes.PhiL || fs.BaseDTR != dtrRes.PhiL {
		t.Fatalf("baselines %v/%v != evaluator %v/%v", fs.BaseSTR, fs.BaseDTR, strRes.PhiL, dtrRes.PhiL)
	}
	sum := fs.Summary("link(sample=8)")
	if sum.Model != "link(sample=8)" || sum.Evaluated != 8 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.STR.WorstState == "" || sum.DTR.WorstState == "" {
		t.Fatal("summary has no worst-state labels")
	}
	if sum.STR.MaxDegr < sum.STR.P95Degr || sum.STR.P95Degr < sum.STR.P50Degr {
		t.Fatalf("degradation quantiles out of order: %+v", sum.STR)
	}
}

// TestCompareSchemesEmptyFamily covers a family with no states — dual-link
// failures of a one-link graph — which must be refused, not swept.
func TestCompareSchemesEmptyFamily(t *testing.T) {
	g := graph.New(2)
	g.AddLink(0, 1, 100, 1)
	tl := traffic.NewMatrix(2)
	tl.Set(0, 1, 5)
	e, err := eval.New(g, traffic.NewMatrix(2), tl, eval.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	states, err := Enumerate(g, Model{Kind: KindLink, Count: 2})
	if err != nil || len(states) != 0 {
		t.Fatalf("dual-link family of one link: %d states, %v", len(states), err)
	}
	w := spf.Uniform(g.NumEdges())
	if _, err := CompareSchemes(NewSweeper(e, Options{}), w, w, w, states); err == nil {
		t.Fatal("CompareSchemes accepted an empty state list")
	}
}
