package eval

import (
	"math/rand/v2"
	"testing"

	"dualtopo/internal/cost"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
	"dualtopo/internal/traffic"
)

// deltaInstance builds a strongly connected random instance. Chord arcs
// (IDs >= 2*nodes) may be disabled without disconnecting the ring, letting
// the test exercise failure transitions through the delta path.
func deltaInstance(t *testing.T, seed uint64, opts Options) (*Evaluator, int, int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 5))
	nodes := 16
	g := graph.New(nodes)
	for u := 0; u < nodes; u++ {
		g.AddLink(graph.NodeID(u), graph.NodeID((u+1)%nodes), 80+40*rng.Float64(), 1+3*rng.Float64())
	}
	for c := 0; c < 24; c++ {
		u := graph.NodeID(rng.IntN(nodes))
		v := graph.NodeID(rng.IntN(nodes))
		if u == v || g.HasLink(u, v) {
			continue
		}
		g.AddLink(u, v, 80+40*rng.Float64(), 1+3*rng.Float64())
	}
	th := traffic.NewMatrix(nodes)
	tl := traffic.NewMatrix(nodes)
	for p := 0; p < nodes*3; p++ {
		s := graph.NodeID(rng.IntN(nodes))
		d := graph.NodeID(rng.IntN(nodes))
		if s == d {
			continue
		}
		tl.Add(s, d, 2+8*rng.Float64())
		if p%3 == 0 {
			th.Add(s, d, 1+4*rng.Float64())
		}
	}
	e, err := New(g, th, tl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, g.NumEdges(), 2 * nodes
}

// TestObjectiveDeltaMatchesFull drives random weight-change sequences
// through ObjectiveHDelta / ObjectiveLDelta and asserts exact (==) agreement
// with full evaluations at every step — EvaluateDTR's objective at the
// incumbent's low-priority weights, and ObjectiveL — across objective kinds
// and delay models.
func TestObjectiveDeltaMatchesFull(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"load", DefaultOptions()},
		{"sla", Options{Kind: SLABased, SLA: defaultSLAForTest()}},
		{"sla-exact", Options{Kind: SLABased, SLA: defaultSLAForTest(), ExactDelay: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, m, ringArcs := deltaInstance(t, 42, tc.opts)
			rng := rand.New(rand.NewPCG(100, 7))
			wH := randomWeightsFor(rng, m)
			wL := randomWeightsFor(rng, m)
			base, err := e.EvaluateDTR(wH, wL)
			if err != nil {
				t.Fatal(err)
			}
			wLBase := wL.Clone() // the low-priority weights base.LLoads route

			mutate := func(w spf.Weights) []graph.EdgeID {
				var changed []graph.EdgeID
				for k := 0; k < 1+rng.IntN(3); k++ {
					id := graph.EdgeID(rng.IntN(m))
					switch {
					case int(id) >= ringArcs && rng.IntN(8) == 0 && w[id] != spf.Disabled:
						w[id] = spf.Disabled
					case w[id] == spf.Disabled:
						w[id] = 1 + rng.IntN(30)
					default:
						w[id] = 1 + rng.IntN(30)
					}
					changed = append(changed, id)
				}
				return changed
			}

			for step := 0; step < 120; step++ {
				changedH := mutate(wH)
				gotH, err := e.ObjectiveHDelta(wH, changedH, base.LLoads)
				if err != nil {
					t.Fatalf("step %d: ObjectiveHDelta: %v", step, err)
				}
				fullH, err := e.EvaluateDTR(wH, wLBase)
				if err != nil {
					t.Fatalf("step %d: EvaluateDTR: %v", step, err)
				}
				if wantH := fullH.Objective(); gotH != wantH {
					t.Fatalf("step %d: H delta %+v != full %+v", step, gotH, wantH)
				}

				changedL := mutate(wL)
				gotL, err := e.ObjectiveLDelta(wL, changedL, base.Residual)
				if err != nil {
					t.Fatalf("step %d: ObjectiveLDelta: %v", step, err)
				}
				wantL, err := e.ObjectiveL(wL, base.Residual)
				if err != nil {
					t.Fatalf("step %d: ObjectiveL: %v", step, err)
				}
				if gotL != wantL {
					t.Fatalf("step %d: L delta %v != full %v", step, gotL, wantL)
				}

				// Periodically move the incumbent, changing the external
				// lLoads/residual inputs the delta paths snapshot.
				if step%17 == 16 {
					base, err = e.EvaluateDTR(wH, wL)
					if err != nil {
						t.Fatal(err)
					}
					copy(wLBase, wL)
				}
			}
		})
	}
}

// TestObjectiveSTRDeltaMatchesFull is the single-topology twin.
func TestObjectiveSTRDeltaMatchesFull(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"load", DefaultOptions()},
		{"sla", Options{Kind: SLABased, SLA: defaultSLAForTest()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, m, _ := deltaInstance(t, 7, tc.opts)
			rng := rand.New(rand.NewPCG(9, 9))
			w := randomWeightsFor(rng, m)
			for step := 0; step < 120; step++ {
				var changed []graph.EdgeID
				for k := 0; k < 1+rng.IntN(2); k++ {
					id := graph.EdgeID(rng.IntN(m))
					w[id] = 1 + rng.IntN(30)
					changed = append(changed, id)
				}
				got, err := e.ObjectiveSTRDelta(w, changed)
				if err != nil {
					t.Fatalf("step %d: ObjectiveSTRDelta: %v", step, err)
				}
				full, err := e.Verify(RouteSTR, [2]spf.Weights{w})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if want := full.Objective(); got != want {
					t.Fatalf("step %d: STR delta %+v != full %+v", step, got, want)
				}
			}
		})
	}
}

// TestCloneDoesNotShareDeltaState primes delta state on the original and
// checks a clone evaluates independently and correctly.
func TestCloneDoesNotShareDeltaState(t *testing.T) {
	e, m, _ := deltaInstance(t, 3, DefaultOptions())
	rng := rand.New(rand.NewPCG(4, 4))
	w := randomWeightsFor(rng, m)
	wL := spf.Uniform(m)
	base, err := e.EvaluateDTR(w, wL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ObjectiveHDelta(w, nil, base.LLoads); err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	w2 := w.Clone()
	w2[0] = w2[0]%30 + 1
	got, err := c.ObjectiveHDelta(w2, []graph.EdgeID{0}, base.LLoads)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.EvaluateDTR(w2, wL)
	if err != nil {
		t.Fatal(err)
	}
	if want := full.Objective(); got != want {
		t.Fatalf("clone delta %+v != full %+v", got, want)
	}
}

func randomWeightsFor(rng *rand.Rand, m int) spf.Weights {
	w := make(spf.Weights, m)
	for i := range w {
		w[i] = 1 + rng.IntN(30)
	}
	return w
}

func defaultSLAForTest() (s cost.SLA) { return cost.DefaultSLA() }
