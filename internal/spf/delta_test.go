package spf

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/traffic"
)

// randomInstance builds a strongly connected graph (bidirectional ring plus
// random chords) and one or two random traffic matrices.
func randomInstance(rng *rand.Rand, nodes, chords, matrices int) (*graph.Graph, []*traffic.Matrix) {
	g := graph.New(nodes)
	for u := 0; u < nodes; u++ {
		g.AddLink(graph.NodeID(u), graph.NodeID((u+1)%nodes), 60+40*rng.Float64(), 1+4*rng.Float64())
	}
	for c := 0; c < chords; c++ {
		u := graph.NodeID(rng.IntN(nodes))
		v := graph.NodeID(rng.IntN(nodes))
		if u == v || g.HasLink(u, v) {
			continue
		}
		g.AddLink(u, v, 60+40*rng.Float64(), 1+4*rng.Float64())
	}
	tms := make([]*traffic.Matrix, matrices)
	for mi := range tms {
		tm := traffic.NewMatrix(nodes)
		pairs := nodes * 2
		for p := 0; p < pairs; p++ {
			s := graph.NodeID(rng.IntN(nodes))
			t := graph.NodeID(rng.IntN(nodes))
			if s == t {
				continue
			}
			tm.Add(s, t, 1+9*rng.Float64())
		}
		tms[mi] = tm
	}
	return g, tms
}

// assertTreesEqual requires bitwise-identical distances, ECMP DAGs and
// orders for every active destination.
func assertTreesEqual(t *testing.T, step int, dr *DeltaRouter, ref *MultiPlan) {
	t.Helper()
	for _, dest := range dr.Destinations() {
		requireTreeEqual(t, dr.Tree(dest), ref.Tree(dest), "step %d dest %d: delta vs full", step, dest)
	}
}

// assertLoadsEqual requires bitwise equality (==, not tolerance) between the
// incremental aggregates and a fresh full route.
func assertLoadsEqual(t *testing.T, step int, dr *DeltaRouter, ref *MultiPlan) {
	t.Helper()
	for mi := range dr.Loads {
		for a := range dr.Loads[mi] {
			if dr.Loads[mi][a] != ref.Loads[mi][a] {
				t.Fatalf("step %d matrix %d arc %d: delta load %v != full load %v (diff %g)",
					step, mi, a, dr.Loads[mi][a], ref.Loads[mi][a], dr.Loads[mi][a]-ref.Loads[mi][a])
			}
		}
	}
}

// TestDeltaRouterMatchesFullRoute drives random single- and multi-arc weight
// changes — including weight decreases and Disabled (failure/repair)
// transitions — and asserts the incremental state is bitwise-equal to a
// from-scratch route after every step.
func TestDeltaRouterMatchesFullRoute(t *testing.T) {
	for _, tc := range []struct {
		name              string
		nodes, chords, ms int
		seed              uint64
	}{
		{"small-1matrix", 10, 8, 1, 1},
		{"medium-2matrix", 24, 30, 2, 2},
		{"dense-1matrix", 16, 48, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(tc.seed, 99))
			g, tms := randomInstance(rng, tc.nodes, tc.chords, tc.ms)
			m := g.NumEdges()

			dr := NewDeltaRouter(g, tms...)
			ref := NewMultiPlan(g, tms...)
			w := Uniform(m)
			for i := range w {
				w[i] = 1 + rng.IntN(30)
			}
			if err := dr.Route(w); err != nil {
				t.Fatal(err)
			}

			disabled := map[graph.EdgeID]int{} // arc -> weight before failure
			prevLoads := make([][]float64, len(dr.Loads))
			for step := 0; step < 400; step++ {
				prev := w.Clone()
				for mi := range dr.Loads {
					prevLoads[mi] = append(prevLoads[mi][:0], dr.Loads[mi]...)
				}
				var changed []graph.EdgeID
				narcs := 1 + rng.IntN(4)
				for k := 0; k < narcs; k++ {
					id := graph.EdgeID(rng.IntN(m))
					switch {
					case rng.IntN(10) == 0 && w[id] != Disabled:
						disabled[id] = w[id]
						w[id] = Disabled
					case w[id] == Disabled:
						w[id] = disabled[id] // repair
						delete(disabled, id)
					case rng.IntN(2) == 0:
						// Biased decrease: the invalidation direction that
						// can create new shortest paths.
						if w[id] > 1 {
							w[id] = 1 + rng.IntN(w[id])
						} else {
							w[id] = 1 + rng.IntN(30)
						}
					default:
						w[id] = 1 + rng.IntN(30)
					}
					changed = append(changed, id)
				}

				refErr := ref.Route(w, tms...)
				moved, err := dr.Apply(w, changed)
				if refErr != nil {
					// A failure disconnected some demand: both paths must
					// fail, and the router must recover via full fallback
					// once the weights are restored.
					if err == nil {
						t.Fatalf("step %d: full route failed (%v) but delta succeeded", step, refErr)
					}
					// Undo this step's mutations before restoring w. An arc
					// repaired this step goes back to Disabled, so its
					// pre-failure weight (the current w value) must be
					// re-recorded — otherwise a later repair would read the
					// map's zero value and install an illegal weight-0 arc.
					// An arc disabled this step returns to a normal weight,
					// so its record is dropped.
					for _, id := range changed {
						if prev[id] == Disabled && w[id] != Disabled {
							disabled[id] = w[id]
						} else if prev[id] != Disabled {
							delete(disabled, id)
						}
					}
					copy(w, prev)
					if err := ref.Route(w, tms...); err != nil {
						t.Fatalf("step %d: restore failed: %v", step, err)
					}
					if _, err := dr.Apply(w, changed); err != nil {
						t.Fatalf("step %d: delta restore failed: %v", step, err)
					}
					if dr.Valid() != true {
						t.Fatalf("step %d: router invalid after recovery", step)
					}
				} else if err != nil {
					t.Fatalf("step %d: delta failed but full route succeeded: %v", step, err)
				} else {
					// Arcs not reported as moved must be untouched.
					movedSet := map[graph.EdgeID]bool{}
					for _, a := range moved {
						movedSet[a] = true
					}
					for mi := range dr.Loads {
						for a, x := range dr.Loads[mi] {
							if x != prevLoads[mi][a] && !movedSet[graph.EdgeID(a)] {
								t.Fatalf("step %d: arc %d load moved %v -> %v but was not reported", step, a, prevLoads[mi][a], x)
							}
						}
					}
				}
				assertTreesEqual(t, step, dr, ref)
				assertLoadsEqual(t, step, dr, ref)
			}

			st := dr.Stats()
			if st.TreesReused == 0 {
				t.Fatalf("delta router never reused a tree: %+v", st)
			}
			if st.TreesRecomputed == 0 {
				t.Fatalf("delta router never recomputed a tree: %+v", st)
			}
			if st.TreesPartial != st.TreesRecomputed {
				t.Fatalf("%d of %d dirty trees took the dynamic update; Apply has no other path: %+v", st.TreesPartial, st.TreesRecomputed, st)
			}
			t.Logf("stats: %+v (reuse ratio %.2f)", st,
				float64(st.TreesReused)/float64(st.TreesReused+st.TreesRecomputed))
		})
	}
}

// TestDeltaRouterMovedList verifies the moved-arc report: every aggregate
// difference between consecutive states is covered by the returned list.
func TestDeltaRouterMovedList(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g, tms := randomInstance(rng, 14, 20, 1)
	m := g.NumEdges()
	dr := NewDeltaRouter(g, tms...)
	w := Uniform(m)
	if err := dr.Route(w); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), dr.Loads[0]...)
	for step := 0; step < 100; step++ {
		id := graph.EdgeID(rng.IntN(m))
		w[id] = 1 + rng.IntN(30)
		moved, err := dr.Apply(w, []graph.EdgeID{id})
		if err != nil {
			t.Fatal(err)
		}
		movedSet := map[graph.EdgeID]bool{}
		for _, a := range moved {
			movedSet[a] = true
		}
		for a := range dr.Loads[0] {
			if dr.Loads[0][a] != before[a] && !movedSet[graph.EdgeID(a)] {
				t.Fatalf("step %d: arc %d load moved %v -> %v but was not reported",
					step, a, before[a], dr.Loads[0][a])
			}
		}
		copy(before, dr.Loads[0])
	}
}

// TestDeltaRouterApplyInvalidFallback checks that Apply on a never-routed
// router performs a full route and reports every arc moved.
func TestDeltaRouterApplyInvalidFallback(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	g, tms := randomInstance(rng, 8, 6, 1)
	dr := NewDeltaRouter(g, tms...)
	w := Uniform(g.NumEdges())
	moved, err := dr.Apply(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != g.NumEdges() {
		t.Fatalf("fallback reported %d moved arcs, want all %d", len(moved), g.NumEdges())
	}
	if dr.Stats().FullRoutes != 1 {
		t.Fatalf("expected one full route, got %+v", dr.Stats())
	}
}

// wholesaleWeights redraws every weight of w in [1, 30], so nearly every arc
// changes, and returns the redrawn setting and its changed arcs.
func wholesaleWeights(rng *rand.Rand, w Weights) (Weights, []graph.EdgeID) {
	w2 := w.Clone()
	for i := range w2 {
		w2[i] = 1 + rng.IntN(30)
	}
	return w2, DiffArcs(w, w2, nil)
}

// TestDeltaRouterWholesaleApply pins that an Apply changing at least half
// the arcs with no checkpoint armed is one full route: the state equals a
// fresh Route bitwise, every arc is reported moved, and no tree goes through
// the dynamic update. Under an armed checkpoint — which a full route would
// disarm — the same Apply stays incremental, and Revert restores the
// pre-image bitwise.
func TestDeltaRouterWholesaleApply(t *testing.T) {
	for _, armed := range []bool{false, true} {
		rng := rand.New(rand.NewPCG(13, 13))
		g, tms := randomInstance(rng, 20, 24, 2)
		dr := NewDeltaRouter(g, tms...)
		w, _ := wholesaleWeights(rng, Uniform(g.NumEdges()))
		if err := dr.Route(w); err != nil {
			t.Fatal(err)
		}
		if armed {
			if err := dr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		w2, changed := wholesaleWeights(rng, w)
		if 2*len(changed) < g.NumEdges() {
			t.Fatalf("only %d of %d arcs changed", len(changed), g.NumEdges())
		}
		before := dr.Stats()
		moved, err := dr.Apply(w2, changed)
		if err != nil {
			t.Fatal(err)
		}
		after := dr.Stats()
		full := after.FullRoutes == before.FullRoutes+1 && after.TreesPartial == before.TreesPartial &&
			after.Applies == before.Applies && len(moved) == g.NumEdges()
		incremental := after.FullRoutes == before.FullRoutes && after.TreesPartial > before.TreesPartial && dr.CheckpointArmed()
		if (!armed && !full) || (armed && !incremental) {
			t.Fatalf("armed=%v: stats %+v, then %+v, %d of %d arcs moved", armed, before, after, len(moved), g.NumEdges())
		}
		want := w2
		if armed {
			dr.Revert()
			want = w
		}
		ref := NewMultiPlan(g, tms...)
		if err := ref.Route(want, tms...); err != nil {
			t.Fatal(err)
		}
		assertTreesEqual(t, 0, dr, ref)
		assertLoadsEqual(t, 0, dr, ref)
		if err := supportInvariant(dr); err != nil {
			t.Fatalf("armed=%v: %v", armed, err)
		}
		for i, x := range dr.Weights() {
			if x != want[i] {
				t.Fatalf("armed=%v: weight %d is %d, want %d", armed, i, x, want[i])
			}
		}
	}
}

// TestDiffArcs covers the arbitrary-transition diff helper.
func TestDiffArcs(t *testing.T) {
	a := Weights{1, 2, 3, Disabled, 5}
	b := Weights{1, 7, 3, 4, 5}
	diff := DiffArcs(a, b, nil)
	if len(diff) != 2 || diff[0] != 1 || diff[1] != 3 {
		t.Fatalf("DiffArcs = %v, want [1 3]", diff)
	}
}

// TestCheckpointRevert pins the rollback contract: after Checkpoint, any
// sequence of Applies — including ones that error on disconnection and
// invalidate the router — is undone bitwise by Revert, without any
// recomputation (FullRoutes must not move).
func TestCheckpointRevert(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 77))
	g, tms := randomInstance(rng, 12, 10, 2)
	m := g.NumEdges()
	dr := NewDeltaRouter(g, tms...)
	ref := NewMultiPlan(g, tms...)
	w := make(Weights, m)
	for i := range w {
		w[i] = 1 + rng.IntN(30)
	}
	if err := dr.Route(w); err != nil {
		t.Fatal(err)
	}
	if err := ref.Route(w, tms...); err != nil {
		t.Fatal(err)
	}

	snapLoads := make([][]float64, len(dr.Loads))
	for mi := range dr.Loads {
		snapLoads[mi] = append([]float64(nil), dr.Loads[mi]...)
	}

	for round := 0; round < 60; round++ {
		if err := dr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		fullBefore := dr.Stats().FullRoutes
		// Mutate: disable a few random arcs (sometimes disconnecting), and
		// sometimes follow with a second Apply stacking more changes.
		wf := w.Clone()
		var changed []graph.EdgeID
		for k := 0; k < 1+rng.IntN(4); k++ {
			id := graph.EdgeID(rng.IntN(m))
			wf[id] = Disabled
			changed = append(changed, id)
		}
		_, err := dr.Apply(wf, changed)
		if err == nil && rng.IntN(2) == 0 {
			id := graph.EdgeID(rng.IntN(m))
			if wf[id] != Disabled {
				wf2 := wf.Clone()
				wf2[id] = 1 + rng.IntN(30)
				_, _ = dr.Apply(wf2, []graph.EdgeID{id})
			}
		}
		dr.Revert()
		if dr.Stats().FullRoutes != fullBefore {
			t.Fatalf("round %d: revert path performed a full route", round)
		}
		if !dr.Valid() {
			t.Fatalf("round %d: router invalid after revert", round)
		}
		assertTreesEqual(t, round, dr, ref)
		for mi := range dr.Loads {
			for a := range dr.Loads[mi] {
				if dr.Loads[mi][a] != snapLoads[mi][a] {
					t.Fatalf("round %d: load[%d][%d] not restored: %v != %v",
						round, mi, a, dr.Loads[mi][a], snapLoads[mi][a])
				}
			}
		}
		for i := range w {
			if dr.Weights()[i] != w[i] {
				t.Fatalf("round %d: weight %d not restored", round, i)
			}
		}
		// The reverted router must keep serving exact incremental updates.
		id := graph.EdgeID(rng.IntN(m))
		w2 := w.Clone()
		w2[id] = 1 + rng.IntN(30)
		if w2[id] != w[id] {
			if _, err := dr.Apply(w2, []graph.EdgeID{id}); err != nil {
				t.Fatal(err)
			}
			if err := ref.Route(w2, tms...); err != nil {
				t.Fatal(err)
			}
			assertTreesEqual(t, round, dr, ref)
			assertLoadsEqual(t, round, dr, ref)
			w = w2
			for mi := range dr.Loads {
				copy(snapLoads[mi], dr.Loads[mi])
			}
		}
	}
	if dr.Stats().Reverts == 0 {
		t.Fatal("no reverts recorded")
	}
}

// supportInvariant reports the first violation of the router's
// support-sized load representation: for every (destination, matrix) pair,
// vals is parallel to sup, every value is positive and no arc is listed
// twice; the scratch vector is all-zero; and re-summing vals in destination
// order reproduces Loads bitwise. Only meaningful on a valid router.
func supportInvariant(dr *DeltaRouter) error {
	for a, x := range dr.scratch {
		if x != 0 {
			return fmt.Errorf("scratch vector holds %v at arc %d", x, a)
		}
	}
	seen := make([]bool, len(dr.scratch))
	for mi, loads := range dr.Loads {
		sums := make([]float64, len(loads))
		for di, dest := range dr.dests {
			sup, vals := dr.sup[di][mi], dr.vals[di][mi]
			if len(vals) != len(sup) {
				return fmt.Errorf("dest %d matrix %d: %d values for %d support arcs", dest, mi, len(vals), len(sup))
			}
			for k, a := range sup {
				if seen[a] {
					return fmt.Errorf("dest %d matrix %d: arc %d listed twice", dest, mi, a)
				}
				seen[a] = true
				if !(vals[k] > 0) {
					return fmt.Errorf("dest %d matrix %d: arc %d carries %v", dest, mi, a, vals[k])
				}
				sums[a] += vals[k]
			}
			for _, a := range sup {
				seen[a] = false
			}
		}
		for a := range loads {
			if sums[a] != loads[a] {
				return fmt.Errorf("matrix %d arc %d: supports sum to %v, Loads holds %v", mi, a, sums[a], loads[a])
			}
		}
	}
	return nil
}

// TestDeltaRouterSupportInvariant holds the support representation to
// supportInvariant through every way the router's state changes: a full
// Route, random Applies (raises, lowers, failures and repairs), a
// Checkpoint→Apply→Revert cycle, and a disconnecting Apply (ErrNoPath)
// undone by Revert.
func TestDeltaRouterSupportInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 29))
	g, tms := randomInstance(rng, 18, 24, 2)
	m := g.NumEdges()
	dr := NewDeltaRouter(g, tms...)
	w := make(Weights, m)
	for i := range w {
		w[i] = 1 + rng.IntN(30)
	}
	check := func(what string) {
		t.Helper()
		if !dr.Valid() {
			t.Fatalf("%s: router invalid", what)
		}
		if err := supportInvariant(dr); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if err := dr.Route(w); err != nil {
		t.Fatal(err)
	}
	check("route")

	for step := 0; step < 200; step++ {
		next := w.Clone()
		var changed []graph.EdgeID
		for k := 1 + rng.IntN(3); k > 0; k-- {
			id := graph.EdgeID(rng.IntN(m))
			if rng.IntN(8) == 0 {
				next[id] = Disabled
			} else {
				next[id] = 1 + rng.IntN(30)
			}
			changed = append(changed, id)
		}
		if _, err := dr.Apply(next, changed); err != nil {
			if !errors.Is(err, ErrNoPath) {
				t.Fatal(err)
			}
			// Recover onto the last connected setting.
			if err := dr.Route(w); err != nil {
				t.Fatal(err)
			}
			continue
		}
		w = next
		check(fmt.Sprintf("apply step %d", step))
	}

	if err := dr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	trial := w.Clone()
	id := graph.EdgeID(rng.IntN(m))
	trial[id] = 1 + (w[id]+7)%30
	if _, err := dr.Apply(trial, []graph.EdgeID{id}); err != nil {
		t.Fatal(err)
	}
	check("checkpointed apply")
	dr.Revert()
	check("revert")

	// Cut every arc out of a demand source: the Apply must fail with
	// ErrNoPath and the Revert must restore the pre-image.
	src := graph.NodeID(-1)
	for _, dest := range dr.Destinations() {
		if col := tms[0].Column(dest); col != nil {
			for u, d := range col {
				if d > 0 {
					src = graph.NodeID(u)
				}
			}
		}
	}
	if src < 0 {
		t.Fatal("instance has no demand")
	}
	if err := dr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cut := w.Clone()
	out := g.Out(src)
	for _, a := range out {
		cut[a] = Disabled
	}
	if _, err := dr.Apply(cut, out); !errors.Is(err, ErrNoPath) {
		t.Fatalf("cutting node %d off: err = %v, want ErrNoPath", src, err)
	}
	dr.Revert()
	check("revert after ErrNoPath")
	if _, err := dr.Apply(trial, []graph.EdgeID{id}); err != nil {
		t.Fatal(err)
	}
	check("apply after reverted ErrNoPath")
}
