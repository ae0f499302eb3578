package eval

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"dualtopo/internal/cost"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

var stateOptions = []struct {
	name string
	opts Options
}{
	{"load", DefaultOptions()},
	{"sla-approx", Options{Kind: SLABased, SLA: cost.DefaultSLA()}},
	{"sla-exact", Options{Kind: SLABased, SLA: cost.DefaultSLA(), ExactDelay: true}},
}

// stateCase is one way of driving a state: its shape, and the classes a
// transition moves while the others stay where they are. "H" and "L" are
// FindH's and FindL's one-class transitions of a dual-topology state.
type stateCase struct {
	name  string
	shape Shape
	moves []int
}

var stateShapes = []stateCase{
	{"H", RouteDTR, []int{High}},
	{"L", RouteDTR, []int{Low}},
	{"STR", RouteSTR, []int{High}},
	{"DTR", RouteDTR, []int{High, Low}},
}

// bothClasses moves every class a state routes.
var bothClasses = []int{High, Low}

// stateHarness drives one RoutingState through random transitions next to a
// from-scratch oracle. The oracle is always SLA-based: on a load-based
// instance the state scores delays against the default SLA, which is what an
// SLA-based evaluator with default parameters computes.
type stateHarness struct {
	t   *testing.T
	rng *rand.Rand
	e   *Evaluator // the instance the state is built over
	ref *Evaluator // oracle
	stateCase
	st *RoutingState
	m  int

	w [2]spf.Weights // requested weights of both classes (aliased on STR)
}

func newStateHarness(t *testing.T, seed uint64, opts Options, sc stateCase) *stateHarness {
	e, m, _ := deltaInstance(t, seed, opts)
	refOpts := opts
	if opts.Kind != SLABased {
		refOpts = Options{Kind: SLABased, SLA: cost.DefaultSLA(), ExactDelay: opts.ExactDelay}
	}
	ref, err := New(e.g, e.th, e.tl, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := &stateHarness{
		t: t, rng: rand.New(rand.NewPCG(seed, 77)), e: e, ref: ref, stateCase: sc,
		st: newRoutingState(e, sc.shape), m: m,
	}
	h.w[High] = randomWeightsFor(h.rng, m)
	h.w[Low] = randomWeightsFor(h.rng, m)
	if sc.shape == RouteSTR {
		h.w[Low] = h.w[High]
	}
	return h
}

// fixed is the class a one-class case's transitions leave where they are,
// or -1 when they move every class the state routes.
func (h *stateHarness) fixed() int {
	if h.shape == RouteDTR && len(h.moves) == 1 {
		return 1 - h.moves[0]
	}
	return -1
}

func (h *stateHarness) full() (*Result, error) {
	if h.shape == RouteSTR {
		return h.ref.EvaluateSTR(h.w[High])
	}
	return h.ref.EvaluateDTR(h.w[High], h.w[Low])
}

// transition moves the listed classes of the state to h.w — by trusted
// changed set or exact diff, at random — leaving the others where they are,
// and holds every reduction to the oracle's.
func (h *stateHarness) transition(what string, classes []int, changed []graph.EdgeID) {
	h.t.Helper()
	var req [2]spf.Weights
	for _, c := range classes {
		req[c] = h.w[c]
	}
	var err error
	if h.rng.IntN(2) == 0 {
		_, err = h.st.Apply(req, changed)
	} else {
		_, err = h.st.Move(req)
	}
	want, fullErr := h.full()
	if (err != nil) != (fullErr != nil) {
		h.t.Fatalf("%s: state err %v, full evaluation err %v", what, err, fullErr)
	}
	if err != nil {
		if !errors.Is(err, spf.ErrNoPath) {
			h.t.Fatalf("%s: %v, want ErrNoPath", what, err)
		}
		if h.st.Valid() {
			h.t.Fatalf("%s: state still valid after a disconnection", what)
		}
		return
	}
	if !h.st.Valid() {
		h.t.Fatalf("%s: state invalid after a successful transition", what)
	}
	h.compare(what, want)
}

func (h *stateHarness) compare(what string, want *Result) {
	h.t.Helper()
	if got := h.st.PhiL(); got != want.PhiL {
		h.t.Fatalf("%s: ΦL %v != full %v", what, got, want.PhiL)
	}
	if got := h.st.PhiH(); got != want.PhiH {
		h.t.Fatalf("%s: ΦH %v != full %v", what, got, want.PhiH)
	}
	if got, full := h.st.MaxUtilization(), want.MaxUtilization(h.e.g); got != full {
		h.t.Fatalf("%s: max utilization %v != full %v", what, got, full)
	}
	lambda, violations, mass := h.st.Penalties()
	if lambda != want.Lambda || violations != want.Violations || mass != want.ViolationMass {
		h.t.Fatalf("%s: SLA (Λ=%v, v=%d, mass=%v) != full (Λ=%v, v=%d, mass=%v)",
			what, lambda, violations, mass, want.Lambda, want.Violations, want.ViolationMass)
	}
}

// mutate applies one random change to h.w and returns its description and
// changed arcs: a ±step on one or two arcs, an arc failure, a repair of
// everything failed, or a node isolated in one class (which disconnects it
// whenever the node sources demand).
func (h *stateHarness) mutate(base [2]spf.Weights) (string, []graph.EdgeID) {
	classes := h.moves
	switch op := h.rng.IntN(8); {
	case op < 4:
		c := classes[h.rng.IntN(len(classes))]
		changed := make([]graph.EdgeID, 1+h.rng.IntN(2))
		for i := range changed {
			a := h.rng.IntN(h.m)
			changed[i] = graph.EdgeID(a)
			if h.w[c][a] != spf.Disabled {
				h.w[c][a] = 1 + (h.w[c][a]+h.rng.IntN(5))%30
			}
		}
		return "step", changed
	case op < 6:
		a := h.rng.IntN(h.m)
		for _, c := range classes {
			h.w[c][a] = spf.Disabled
		}
		return fmt.Sprintf("fail arc %d", a), []graph.EdgeID{graph.EdgeID(a)}
	case op < 7:
		var changed []graph.EdgeID
		for _, c := range classes {
			for a := range h.w[c] {
				if h.w[c][a] == spf.Disabled {
					h.w[c][a] = base[c][a]
					changed = append(changed, graph.EdgeID(a))
				}
			}
		}
		return "repair all", changed
	default:
		c := classes[h.rng.IntN(len(classes))]
		v := graph.NodeID(h.rng.IntN(h.e.g.NumNodes()))
		out := h.e.g.Out(v)
		for _, a := range out {
			h.w[c][a] = spf.Disabled
		}
		return fmt.Sprintf("isolate node %d in class %d", v, c), out
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameAsFresh holds every vector of the state to a freshly built state moved
// straight to the same weights.
func (h *stateHarness) sameAsFresh(what string) {
	h.t.Helper()
	fresh := newRoutingState(h.e, h.shape)
	if _, err := fresh.Move(h.w); err != nil {
		h.t.Fatalf("%s: fresh state: %v", what, err)
	}
	h.st.Penalties()
	fresh.Penalties()
	vec := func(name string, a, b []float64) {
		if !bitsEqual(a, b) {
			h.t.Fatalf("%s: %s differs from a fresh state's", what, name)
		}
	}
	vec("linkPhiH", h.st.linkPhiH, fresh.linkPhiH)
	vec("residual", h.st.residual, fresh.residual)
	vec("linkPhiL", h.st.linkPhiL, fresh.linkPhiL)
	vec("linkDelay", h.st.linkDelay, fresh.linkDelay)
	for c := range h.st.loads {
		vec(fmt.Sprintf("loads[%d]", c), h.st.loads[c], fresh.loads[c])
	}
	for di := range h.st.pairDelay {
		vec(fmt.Sprintf("pairDelay[%d]", di), h.st.pairDelay[di], fresh.pairDelay[di])
	}
	for c, dr := range h.st.dr {
		if dr == nil {
			continue
		}
		for a, w := range dr.Weights() {
			if w != fresh.dr[c].Weights()[a] {
				h.t.Fatalf("%s: router %d weight of arc %d differs from a fresh state's", what, c, a)
			}
		}
	}
}

// TestRoutingStateMatchesFullEvaluation is the property test of the one
// incremental routing state: over random graphs, both shapes, one-class and
// both-class transitions and every objective, a random interleaving of weight
// steps, arc failures, repairs, disconnections with recovery, moves of the
// class a one-class driver holds fixed, and checkpointed what-ifs
// keeps every reduction bitwise-equal to EvaluateSTR / EvaluateDTR at the
// same weights, and every revert leaves all vectors equal to a fresh state's.
func TestRoutingStateMatchesFullEvaluation(t *testing.T) {
	for _, oc := range stateOptions {
		for _, sc := range stateShapes {
			t.Run(oc.name+"/"+sc.name, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					h := newStateHarness(t, seed, oc.opts, sc)
					base := [2]spf.Weights{h.w[High].Clone(), h.w[Low].Clone()}
					if sc.shape == RouteSTR {
						base[Low] = base[High]
					}
					h.transition("initial route", bothClasses, nil)
					for step := 0; step < 80; step++ {
						at := fmt.Sprintf("seed %d step %d", seed, step)
						switch op := h.rng.IntN(10); {
						case op < 6 || !h.st.Valid():
							what, changed := h.mutate(base)
							h.transition(at+": "+what, h.moves, changed)
						case op < 7 && h.fixed() >= 0:
							c := h.fixed()
							h.w[c] = randomWeightsFor(h.rng, h.m)
							base[c] = h.w[c].Clone()
							every := make([]graph.EdgeID, h.m)
							for a := range every {
								every[a] = graph.EdgeID(a)
							}
							h.transition(at+": move the fixed class", []int{c}, every)
						default:
							saved := [2]spf.Weights{h.w[High].Clone(), h.w[Low].Clone()}
							if err := h.st.Checkpoint(); err != nil {
								t.Fatalf("%s: Checkpoint: %v", at, err)
							}
							what, changed := h.mutate(base)
							h.transition(at+": what-if "+what, h.moves, changed)
							h.st.Revert()
							if h.st.CheckpointArmed() {
								t.Fatalf("%s: Revert left a checkpoint armed", at)
							}
							copy(h.w[High], saved[High])
							copy(h.w[Low], saved[Low])
							h.sameAsFresh(at + ": after revert of " + what)
							want, err := h.full()
							if err != nil {
								t.Fatalf("%s: base no longer routes: %v", at, err)
							}
							h.compare(at+": after revert", want)
						}
					}
				}
			})
		}
	}
}

// TestRoutingStateFirstReadUnderCheckpoint covers the lazily built vectors:
// when ΦH and the delays are first read inside a checkpointed what-if, they
// are computed from the what-if loads, and Revert must still leave them equal
// to a fresh state's.
func TestRoutingStateFirstReadUnderCheckpoint(t *testing.T) {
	for _, sc := range stateShapes[2:] {
		h := newStateHarness(t, 4, Options{Kind: SLABased, SLA: cost.DefaultSLA()}, sc)
		if _, err := h.st.Move(h.w); err != nil {
			t.Fatal(err)
		}
		if err := h.st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		saved := [2]spf.Weights{h.w[High].Clone(), h.w[Low].Clone()}
		for a := 0; a < 4; a++ {
			h.w[High][a], h.w[Low][a] = h.w[High][a]%30+1, h.w[Low][a]%30+1
		}
		h.transition(sc.name+": what-if", bothClasses, []graph.EdgeID{0, 1, 2, 3})
		h.st.Revert()
		copy(h.w[High], saved[High])
		copy(h.w[Low], saved[Low])
		h.sameAsFresh(sc.name + ": after revert")
	}
}

// TestRoutingStateZeroSteadyStateAllocs pins the two warm paths every driver
// sits on: apply + reduce, and checkpoint → apply → reduce → revert — and the
// full, non-incremental STR evaluation into a reused Result.
func TestRoutingStateZeroSteadyStateAllocs(t *testing.T) {
	e, m, ring := deltaInstance(t, 6, Options{Kind: SLABased, SLA: cost.DefaultSLA()})
	for _, sc := range stateShapes[2:] {
		st := newRoutingState(e, sc.shape)
		rng := rand.New(rand.NewPCG(6, 6))
		wA := [2]spf.Weights{randomWeightsFor(rng, m), randomWeightsFor(rng, m)}
		wB := [2]spf.Weights{wA[High].Clone(), wA[Low].Clone()}
		changed := []graph.EdgeID{3, graph.EdgeID(ring + 1)}
		for _, a := range changed {
			wB[High][a] = wA[High][a]%30 + 1
			wB[Low][a] = wA[Low][a]%30 + 1
		}
		failed := [2]spf.Weights{wA[High].Clone(), wA[Low].Clone()}
		failed[High][ring], failed[Low][ring] = spf.Disabled, spf.Disabled
		reduce := func() {
			st.PhiH()
			st.PhiL()
			st.Penalties()
			st.MaxUtilization()
		}
		flip := false
		step := func() {
			w := wA
			if flip = !flip; flip {
				w = wB
			}
			if _, err := st.Apply(w, changed); err != nil {
				t.Fatal(err)
			}
			reduce()
		}
		whatIf := func() {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Apply(failed, []graph.EdgeID{graph.EdgeID(ring)}); err != nil {
				t.Fatal(err)
			}
			reduce()
			st.Revert()
		}
		for i := 0; i < 4; i++ {
			step()
		}
		whatIf()
		if n := testing.AllocsPerRun(50, step); n != 0 {
			t.Errorf("%s: warm apply + reduce allocates %v times per run", sc.name, n)
		}
		if flip {
			step() // back to wA, which the what-if's changed set assumes
		}
		if n := testing.AllocsPerRun(50, whatIf); n != 0 {
			t.Errorf("%s: warm checkpoint → apply → reduce → revert allocates %v times per run", sc.name, n)
		}
	}
	w := randomWeightsFor(rand.New(rand.NewPCG(6, 6)), m)
	var r Result
	full := func() {
		if err := e.EvaluateSTRInto(&r, w); err != nil {
			t.Fatal(err)
		}
	}
	full()
	if n := testing.AllocsPerRun(50, full); n != 0 {
		t.Errorf("warm EvaluateSTRInto allocates %v times per run", n)
	}
}

// TestRevertRestoresStaleMarks pins what a what-if leaves of the delays when
// they are live (an SLA search's FindH reads them, and its candidates and a
// failure sweep share the state): Checkpoint settles them, a destination the
// what-if recomputed gets its pre-image back on Revert, and one it only
// marked keeps its delays — so whether or not the what-if read Penalties, no
// destination is stale after Revert unless it was stale at Checkpoint, and
// the next reading is bitwise the pre-checkpoint one. A destination left
// stale before Checkpoint is settled by it.
func TestRevertRestoresStaleMarks(t *testing.T) {
	e, m, ring := deltaInstance(t, 8, Options{Kind: SLABased, SLA: cost.DefaultSLA()})
	stale := func(st *RoutingState) int {
		n := 0
		for _, s := range st.stale {
			if s {
				n++
			}
		}
		return n
	}
	for _, sc := range stateShapes[2:] {
		st := newRoutingState(e, sc.shape)
		w := [2]spf.Weights{randomWeightsFor(rand.New(rand.NewPCG(8, 8)), m), nil}
		if w[Low] = w[High]; sc.shape == RouteDTR {
			w[Low] = randomWeightsFor(rand.New(rand.NewPCG(9, 9)), m)
		}
		if _, err := st.Move(w); err != nil {
			t.Fatal(err)
		}
		lambda, viol, mass := st.Penalties()
		var delays [][]float64
		for _, d := range st.pairDelay {
			delays = append(delays, slices.Clone(d))
		}
		same := func(what string) {
			t.Helper()
			if l, v, ms := st.Penalties(); math.Float64bits(l) != math.Float64bits(lambda) || v != viol || math.Float64bits(ms) != math.Float64bits(mass) {
				t.Errorf("%s: %s: penalties (%v, %d, %v), want (%v, %d, %v)", sc.name, what, l, v, ms, lambda, viol, mass)
			}
			for di, d := range st.pairDelay {
				if !bitsEqual(d, delays[di]) {
					t.Errorf("%s: %s: pair delays to destination %d differ from the pre-checkpoint ones", sc.name, what, di)
				}
			}
		}
		moved := func() bool { // whether some pair delay differs from delays
			for di, d := range st.pairDelay {
				if !bitsEqual(d, delays[di]) {
					return true
				}
			}
			return false
		}
		var failed [2]spf.Weights
		// whatIf fails arc a in every class, reads the delays if asked, and
		// reverts, reporting how many destinations the failure marked and
		// whether the read moved a pair delay.
		whatIf := func(a int, read bool) (marked int, changed bool, err error) {
			failed = [2]spf.Weights{w[High].Clone(), w[Low].Clone()}
			failed[High][a], failed[Low][a] = spf.Disabled, spf.Disabled
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err = st.Apply(failed, []graph.EdgeID{graph.EdgeID(a)}); err == nil {
				marked = stale(st)
				if read {
					st.Penalties()
					changed = moved()
				}
			}
			st.Revert()
			return marked, changed, err
		}
		// A failure whose what-if moves a pair delay makes the restore
		// observable; disconnecting ones are reverted too.
		arc := -1
		for a := ring; a < m && arc < 0; a++ {
			if _, changed, err := whatIf(a, true); err == nil && changed {
				arc = a
			}
		}
		if arc < 0 {
			t.Fatalf("%s: no single failure moves a pair delay; the test is vacuous", sc.name)
		}
		same("after the failures tried")
		for _, read := range []bool{false, true, true} {
			if marked, _, err := whatIf(arc, read); err != nil || marked == 0 {
				t.Fatalf("%s: failing arc %d marked %d destinations (%v)", sc.name, arc, marked, err)
			}
			if n := stale(st); n != 0 {
				t.Errorf("%s: %d destinations left stale by a what-if (read %v)", sc.name, n, read)
			}
			same(fmt.Sprintf("after a what-if (read %v)", read))
		}

		// Leave destinations stale, then what-if: Checkpoint settles them
		// first, so Revert leaves none behind.
		if _, err := st.Move(failed); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Move(w); err != nil {
			t.Fatal(err)
		}
		if stale(st) == 0 {
			t.Fatalf("%s: a round trip through the failure marked nothing stale", sc.name)
		}
		whatIf(arc, true)
		if n := stale(st); n != 0 {
			t.Errorf("%s: %d destinations stale after a what-if on a state left stale", sc.name, n)
		}
		same("after a what-if on a state left stale")
	}
}
