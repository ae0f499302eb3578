package spf

import (
	"errors"
	"slices"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/traffic"
)

// fuzzInput deals the fuzzer's bytes out one small integer at a time; an
// exhausted input reads as zeros.
type fuzzInput struct{ b []byte }

func (f *fuzzInput) next(mod int) int {
	if len(f.b) == 0 {
		return 0
	}
	v := int(f.b[0])
	f.b = f.b[1:]
	return v % mod
}

// weight maps a byte onto [1, 30] ∪ {Disabled}.
func (f *fuzzInput) weight() int {
	if v := f.next(32); v >= 1 && v <= 30 {
		return v
	}
	return Disabled
}

// FuzzDeltaRouterApply is the differential half of the hardening item: the
// bytes become a small graph (a ring plus one-way chords, parallel arcs
// allowed), a demand matrix and a sequence of weight settings in
// [1, 30] ∪ {Disabled}. After every Apply the router must agree bitwise — the
// aggregate Loads and every Tree — with a second router freshly Routed at the
// same setting (itself bitwise-equal, error included, to a third Routed on
// three workers), fail exactly when that one fails, and come back to its
// pre-image when the step ran between Checkpoint and Revert; its
// per-destination supports must satisfy supportInvariant throughout. The
// seed corpus is testdata/fuzz/FuzzDeltaRouterApply: the planner's
// raise-one-lower-one move, failures and repairs that cut demand off, an
// island leaving and rejoining, and two unstructured streams.
func FuzzDeltaRouterApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		n := 3 + in.next(8)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			g.AddLink(graph.NodeID(u), graph.NodeID((u+1)%n), 100, 1)
		}
		for k := in.next(12); k > 0; k-- {
			if u, v := in.next(n), in.next(n); u != v {
				g.AddArc(graph.NodeID(u), graph.NodeID(v), 100, 1)
			}
		}
		tm := traffic.NewMatrix(n)
		tm.Set(1, 0, 1) // never empty
		for k := in.next(16); k > 0; k-- {
			if s, d := in.next(n), in.next(n); s != d {
				tm.Add(graph.NodeID(s), graph.NodeID(d), 1+float64(in.next(256))/7)
			}
		}
		m := g.NumEdges()
		cur := make(Weights, m)
		for a := range cur {
			cur[a] = in.weight()
		}

		dr, fresh, sharded := NewDeltaRouter(g, tm), NewDeltaRouter(g, tm), NewDeltaRouter(g, tm)
		sharded.SetWorkers(3)
		agree := func(step int, errDelta error, w Weights) {
			t.Helper()
			errFresh := fresh.Route(w)
			requireSameError(t, sharded.Route(w), errFresh, "step %d: 3-worker route", step)
			if errFresh == nil {
				requireRoutesEqual(t, &sharded.routeCore, &fresh.routeCore, "step %d: 3-worker route", step)
			}
			if (errDelta == nil) != (errFresh == nil) {
				t.Fatalf("step %d: delta error %v, fresh route error %v", step, errDelta, errFresh)
			}
			if errDelta != nil {
				if !errors.Is(errDelta, ErrNoPath) || dr.Valid() {
					t.Fatalf("step %d: error %v, router valid=%v", step, errDelta, dr.Valid())
				}
				return
			}
			if !slices.Equal(dr.Weights(), w) {
				t.Fatalf("step %d: router weights %v, want %v", step, dr.Weights(), w)
			}
			for mi := range dr.Loads {
				if !slices.Equal(dr.Loads[mi], fresh.Loads[mi]) {
					t.Fatalf("step %d: loads\ndelta %v\nfresh %v", step, dr.Loads[mi], fresh.Loads[mi])
				}
			}
			for _, d := range dr.Destinations() {
				requireTreeEqual(t, dr.Tree(d), fresh.Tree(d), "step %d dest %d", step, d)
			}
			if err := supportInvariant(dr); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		agree(-1, dr.Route(cur), cur)

		for step := 0; step < 64 && len(in.b) > 0; step++ {
			trial := in.next(4) == 0 && dr.Valid()
			if trial {
				if err := dr.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			w := cur.Clone()
			var changed []graph.EdgeID
			for k := 1 + in.next(4); k > 0; k-- {
				a := graph.EdgeID(in.next(m))
				w[a] = in.weight()
				changed = append(changed, a)
			}
			_, err := dr.Apply(w, changed)
			agree(step, err, w)
			if trial {
				dr.Revert()
				agree(step, nil, cur)
			} else {
				cur = w
			}
		}
	})
}
