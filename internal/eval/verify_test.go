package eval

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// TestVerify pins Evaluator.Verify, the one delta == full check, on both
// shapes and both objective kinds. It must pass along a random walk of
// Applies and checkpointed what-ifs; it must fail when any maintained vector
// of the state is one ulp off on one entry; and it must fail when the state
// and the full evaluation disagree about disconnection, in either direction.
func TestVerify(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), {Kind: SLABased, SLA: defaultSLAForTest()}} {
		for _, shape := range []Shape{RouteSTR, RouteDTR} {
			t.Run(opts.Kind.String()+"/"+[2]string{"STR", "DTR"}[shape], func(t *testing.T) {
				e, m, ringArcs := deltaInstance(t, 23, opts)
				rng := rand.New(rand.NewPCG(23, uint64(shape)))
				st := e.State(shape)
				classes := []int{High, Low}
				if shape == RouteSTR {
					classes = classes[:1]
				}
				var w [2]spf.Weights
				for _, c := range classes {
					w[c] = randomWeightsFor(rng, m)
				}
				if _, err := st.Move(w); err != nil {
					t.Fatal(err)
				}
				mustVerify := func(what string, w [2]spf.Weights) {
					t.Helper()
					full, err := e.Verify(shape, w)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if full == nil {
						t.Fatalf("%s: no result for a routed state", what)
					}
				}
				mustVerify("routed", w)

				// mutate changes one to three arcs of one class in a copy of
				// w; chords may go down, the ring never does.
				mutate := func(w [2]spf.Weights) ([2]spf.Weights, []graph.EdgeID) {
					c := classes[rng.IntN(len(classes))]
					w[c] = w[c].Clone()
					var changed []graph.EdgeID
					for k := 0; k < 1+rng.IntN(3); k++ {
						a := graph.EdgeID(rng.IntN(m))
						if int(a) >= ringArcs && rng.IntN(6) == 0 {
							w[c][a] = spf.Disabled
						} else {
							w[c][a] = 1 + rng.IntN(30)
						}
						changed = append(changed, a)
					}
					return w, changed
				}
				for step := 0; step < 60; step++ {
					next, changed := mutate(w)
					if rng.IntN(2) == 0 {
						if _, err := st.Apply(next, changed); err != nil {
							t.Fatal(err)
						}
						w = next
						mustVerify("apply", w)
						continue
					}
					if err := st.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if _, err := st.Apply(next, changed); err != nil {
						t.Fatal(err)
					}
					mustVerify("what-if", next)
					st.Revert()
					mustVerify("revert", w)
				}

				// One ulp on one entry of any maintained vector fails it.
				type vector struct {
					name string
					v    []float64
				}
				vectors := []vector{
					{"high loads", st.loads[High]},
					{"low loads", st.loads[Low]},
					{"residual", st.residual},
					{"link ΦL", st.linkPhiL},
					{"link ΦH", st.linkPhiH},
				}
				if opts.Kind == SLABased {
					vectors = append(vectors, vector{"link delay", st.linkDelay})
					for _, d := range st.pairDelay {
						if len(d) > 0 {
							vectors = append(vectors, vector{"pair delays", d})
							break
						}
					}
				}
				for _, vec := range vectors {
					v := vec.v
					if len(v) == 0 {
						t.Fatalf("%s: not maintained after Verify read the state", vec.name)
					}
					i := rng.IntN(len(v))
					old := v[i]
					v[i] = math.Nextafter(old, math.Inf(1))
					_, err := e.Verify(shape, w)
					v[i] = old
					if err == nil {
						t.Errorf("%s[%d] one ulp off: Verify passed", vec.name, i)
					}
					mustVerify("restored "+vec.name, w)
				}

				// Weights other than the state's fail it.
				other := w
				other[High] = w[High].Clone()
				other[High][0] = w[High][0]%30 + 1
				if _, err := e.Verify(shape, other); err == nil {
					t.Error("Verify passed at weights the state does not sit at")
				}

				// Cut every arc out of a high-priority source: the full
				// evaluation disconnects while the state still routes.
				var cut [2]spf.Weights
				for _, c := range classes {
					cut[c] = w[c].Clone()
					for _, a := range e.g.Out(e.HighPriorityPairs()[0].Src) {
						cut[c][a] = spf.Disabled
					}
				}
				if _, err := e.Verify(shape, cut); err == nil {
					t.Error("Verify passed a routed state against a disconnecting full evaluation")
				}
				if _, err := st.Move(cut); !errors.Is(err, spf.ErrNoPath) {
					t.Fatalf("cut: Move = %v, want ErrNoPath", err)
				}
				if full, err := e.Verify(shape, cut); err != nil || full != nil {
					t.Errorf("both disconnected: Verify = %v, %v; want nil, nil", full, err)
				}
				if _, err := e.Verify(shape, w); err == nil {
					t.Error("Verify passed a disconnected state against a routing full evaluation")
				}
				if _, err := st.Move(w); err != nil {
					t.Fatal(err)
				}
				mustVerify("reconnected", w)
			})
		}
	}
}
