package eval

import (
	"errors"
	"testing"

	"dualtopo/internal/cost"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
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
	return spf.Disabled
}

// FuzzRoutingState is the RoutingState twin of spf's FuzzDeltaRouterApply.
// The bytes become a small instance (a ring plus chords, both matrices, an
// objective and a shape) and a sequence of ops: a one- or both-class Apply
// of a random move, a Checkpoint → Apply → optional Penalties/PhiH read →
// Revert what-if, or a Move to a random setting, weights drawn from
// [1, 30] ∪ {Disabled}. After every op ΦH, ΦL, the penalties and the
// maximum utilization must equal a from-scratch EvaluateSTR / EvaluateDTR
// at the state's weights bitwise, and both must agree on spf.ErrNoPath.
func FuzzRoutingState(f *testing.F) {
	f.Add([]byte("\x05\x03\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x00\x01\x01\x02\x03\x02\x05\x01\x07\x00\x09\x04"))
	f.Add([]byte("\x07\x06\x02\x05\x01\x04\x03\x06\x0a\x14\x1e\x09\x11\x02\x03\x04\x05\x01\x01\x03\x00\x1f\x02\x01\x04\x05\x06\x00\x02\x07"))
	f.Add([]byte("\x04\x00\x07\x1c\x1f\x1d\x03\x03\x00\x11\x01\x01\x1f\x00\x00\x01\x00\x02\x1f\x01\x01\x04\x03\x00\x01\x01\x05"))
	f.Add([]byte("\x09\x0b\x0d\x01\x03\x05\x07\x09\x0b\x0d\x0f\x11\x13\x15\x17\x19\x1b\x1d\x02\x04\x06\x08\x0a\x0c\x0e\x10\x12\x14\x16\x18"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		n := 3 + in.next(7)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			g.AddLink(graph.NodeID(u), graph.NodeID((u+1)%n), float64(20+in.next(100)), float64(1+in.next(8)))
		}
		for k := in.next(8); k > 0; k-- {
			if u, v := in.next(n), in.next(n); u != v {
				g.AddArc(graph.NodeID(u), graph.NodeID(v), float64(20+in.next(100)), float64(1+in.next(8)))
			}
		}
		th, tl := traffic.NewMatrix(n), traffic.NewMatrix(n)
		th.Set(1, 0, 3) // never empty
		for k := in.next(12); k > 0; k-- {
			if s, d := in.next(n), in.next(n); s != d {
				tm := tl
				if in.next(2) == 0 {
					tm = th
				}
				tm.Add(graph.NodeID(s), graph.NodeID(d), 1+float64(in.next(64))/3)
			}
		}
		opts := []Options{
			DefaultOptions(),
			{Kind: SLABased, SLA: cost.DefaultSLA()},
			{Kind: SLABased, SLA: cost.DefaultSLA(), ExactDelay: true},
		}[in.next(3)]
		shape := Shape(in.next(2))
		e, err := New(g, th, tl, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle is SLA-based: a load-based state scores delays against
		// the default SLA.
		ref, err := New(g, th, tl, Options{Kind: SLABased, SLA: cost.DefaultSLA(), ExactDelay: opts.ExactDelay})
		if err != nil {
			t.Fatal(err)
		}
		st := newRoutingState(e, shape)
		m := g.NumEdges()
		classes := []int{High, Low}
		if shape == RouteSTR {
			classes = classes[:1]
		}
		random := func() spf.Weights {
			w := make(spf.Weights, m)
			for a := range w {
				w[a] = in.weight()
			}
			return w
		}
		full := func(w [2]spf.Weights) (*Result, error) {
			if shape == RouteSTR {
				return ref.EvaluateSTR(w[High])
			}
			return ref.EvaluateDTR(w[High], w[Low])
		}
		// check holds the state, just transitioned to w with error err, to
		// the oracle at w.
		check := func(what string, w [2]spf.Weights, err error) {
			t.Helper()
			want, fullErr := full(w)
			if (err == nil) != (fullErr == nil) {
				t.Fatalf("%s: state error %v, full evaluation error %v", what, err, fullErr)
			}
			if err != nil {
				if !errors.Is(err, spf.ErrNoPath) || st.Valid() {
					t.Fatalf("%s: error %v with the state valid=%v, want ErrNoPath on an invalid state", what, err, st.Valid())
				}
				return
			}
			lambda, violations, mass := st.Penalties()
			if !bitsEqual([]float64{st.PhiH(), st.PhiL(), st.MaxUtilization(), lambda, mass},
				[]float64{want.PhiH, want.PhiL, want.MaxUtilization(g), want.Lambda, want.ViolationMass}) ||
				violations != want.Violations {
				t.Fatalf("%s: state (ΦH %v, ΦL %v, max util %v, Λ %v, mass %v, %d violations), full (%v, %v, %v, %v, %v, %d)",
					what, st.PhiH(), st.PhiL(), st.MaxUtilization(), lambda, mass, violations,
					want.PhiH, want.PhiL, want.MaxUtilization(g), want.Lambda, want.ViolationMass, want.Violations)
			}
		}
		// move returns cur with one or two arcs of the given classes set to
		// fresh weights, and the arcs.
		move := func(cur [2]spf.Weights, moved []int) ([2]spf.Weights, []graph.EdgeID) {
			w := cur
			for _, c := range moved {
				w[c] = cur[c].Clone()
			}
			var changed []graph.EdgeID
			for k := 1 + in.next(2); k > 0; k-- {
				a := graph.EdgeID(in.next(m))
				for _, c := range moved {
					w[c][a] = in.weight()
				}
				changed = append(changed, a)
			}
			return w, changed
		}

		cur := [2]spf.Weights{random(), nil}
		if cur[Low] = cur[High]; shape == RouteDTR {
			cur[Low] = random()
		}
		_, err = st.Move(cur)
		check("initial route", cur, err)
		for step := 0; step < 48 && len(in.b) > 0; step++ {
			switch op := in.next(3); {
			case op == 0 || !st.Valid():
				// One class, or — always after a disconnection, which left
				// the state invalid — every class.
				moved := classes
				if op == 0 && st.Valid() && shape == RouteDTR && in.next(2) == 0 {
					c := in.next(2)
					moved = classes[c : c+1]
				}
				w, changed := move(cur, moved)
				if shape == RouteSTR {
					w[Low] = w[High]
				}
				var req [2]spf.Weights
				for _, c := range moved {
					req[c] = w[c]
				}
				if !st.Valid() {
					_, err = st.Move(req)
				} else {
					_, err = st.Apply(req, changed)
				}
				cur = w
				check("apply", cur, err)
			case op == 1:
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				w, changed := move(cur, classes)
				if shape == RouteSTR {
					w[Low] = w[High]
				}
				if _, err := st.Apply(w, changed); err == nil && in.next(2) == 0 {
					st.Penalties()
					st.PhiH()
				}
				st.Revert()
				check("revert", cur, nil)
			default:
				for _, c := range classes {
					cur[c] = random()
				}
				if shape == RouteSTR {
					cur[Low] = cur[High]
				}
				_, err = st.Move(cur)
				check("move", cur, err)
			}
		}
	})
}
