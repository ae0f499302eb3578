package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/instance"
	"dualtopo/internal/resilience"
	"dualtopo/internal/search"
	"dualtopo/internal/spf"
)

// testSpec is the instance every engine test loads: small enough that the
// full suite stays fast, irregular enough (random topology, seeded traffic)
// that routing results are not trivially symmetric.
func testSpec() instance.Spec {
	return instance.Spec{
		Topology:   instance.TopoRandom,
		Nodes:      14,
		Links:      35,
		TargetUtil: 0.6,
		Seed:       11,
	}
}

func loadTestHandle(t *testing.T, pool PoolConfig) *Handle {
	t.Helper()
	h, err := Load(Spec{Name: "test", Instance: testSpec(), Pool: pool})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	t.Cleanup(h.Close)
	return h
}

// perturb derives the q-th deterministic weight setting from uniform.
func perturb(n, q int) spf.Weights {
	w := spf.Uniform(n)
	for i := range w {
		w[i] = 1 + (i*7+q*13)%9
	}
	return w
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestSessionMatchesHandWiredEvaluator(t *testing.T) {
	h := loadTestHandle(t, PoolConfig{})
	inst := h.Instance()

	ref, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
	if err != nil {
		t.Fatalf("eval.New: %v", err)
	}
	ref.SetRouteWorkers(1)

	s, err := h.Session(context.Background())
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer func() {
		if err := h.Release(s); err != nil {
			t.Errorf("Release: %v", err)
		}
	}()

	w := perturb(inst.G.NumEdges(), 3)
	want, err := ref.EvaluateSTR(w)
	if err != nil {
		t.Fatalf("ref EvaluateSTR: %v", err)
	}
	got, err := s.EvaluateSTR(w)
	if err != nil {
		t.Fatalf("session EvaluateSTR: %v", err)
	}
	if !sameFloat(got.PhiH, want.PhiH) || !sameFloat(got.PhiL, want.PhiL) ||
		!sameFloat(got.Lambda, want.Lambda) || got.Violations != want.Violations {
		t.Fatalf("session result %+v != hand-wired %+v", got, want)
	}

	wH := perturb(inst.G.NumEdges(), 5)
	wL := perturb(inst.G.NumEdges(), 8)
	wantD, err := ref.EvaluateDTR(wH, wL)
	if err != nil {
		t.Fatalf("ref EvaluateDTR: %v", err)
	}
	gotD, err := s.EvaluateDTR(wH, wL)
	if err != nil {
		t.Fatalf("session EvaluateDTR: %v", err)
	}
	if !sameFloat(gotD.PhiH, wantD.PhiH) || !sameFloat(gotD.PhiL, wantD.PhiL) ||
		!sameFloat(gotD.Lambda, wantD.Lambda) {
		t.Fatalf("session DTR %+v != hand-wired %+v", gotD, wantD)
	}
}

// TestSessionResultReuse pins the ownership rule of Session.EvaluateDTR: the
// second call returns the same Result on the same backing arrays — nothing is
// allocated for it — and what it holds is bitwise what a fresh
// Evaluator.EvaluateDTR computes, every per-arc and per-pair vector included,
// even though the first call left other numbers in place.
func TestSessionResultReuse(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			spec := testSpec()
			spec.Kind = kind
			h, err := Load(Spec{Name: "test", Instance: spec, Pool: PoolConfig{}})
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			defer h.Close()
			inst := h.Instance()
			ref, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
			if err != nil {
				t.Fatalf("eval.New: %v", err)
			}
			s, err := h.Session(context.Background())
			if err != nil {
				t.Fatalf("Session: %v", err)
			}
			defer h.Release(s) //nolint:errcheck // no checkpoint is taken here

			m := inst.G.NumEdges()
			first, err := s.EvaluateDTR(perturb(m, 1), perturb(m, 2))
			if err != nil {
				t.Fatalf("first EvaluateDTR: %v", err)
			}
			vectors := func(r *eval.Result) [][]float64 {
				return [][]float64{r.HLoads, r.LLoads, r.Residual, r.LinkPhiH, r.LinkPhiL, r.LinkDelay, r.PairDelays}
			}
			before := vectors(first)

			wH, wL := perturb(m, 5), perturb(m, 8)
			second, err := s.EvaluateDTR(wH, wL)
			if err != nil {
				t.Fatalf("second EvaluateDTR: %v", err)
			}
			want, err := ref.EvaluateDTR(wH, wL)
			if err != nil {
				t.Fatalf("ref EvaluateDTR: %v", err)
			}
			if second != first {
				t.Errorf("second call returned a different *Result")
			}
			if !sameFloat(second.PhiH, want.PhiH) || !sameFloat(second.PhiL, want.PhiL) ||
				!sameFloat(second.Lambda, want.Lambda) || !sameFloat(second.ViolationMass, want.ViolationMass) ||
				second.Violations != want.Violations || second.Objective() != want.Objective() {
				t.Errorf("reused result %+v != fresh %+v", second, want)
			}
			after, fresh := vectors(second), vectors(want)
			for i := range after {
				if len(after[i]) != len(fresh[i]) || (after[i] == nil) != (fresh[i] == nil) {
					t.Fatalf("vector %d: len %d (nil %v), fresh len %d (nil %v)",
						i, len(after[i]), after[i] == nil, len(fresh[i]), fresh[i] == nil)
				}
				if len(after[i]) > 0 && &after[i][0] != &before[i][0] {
					t.Errorf("vector %d moved to a new backing array", i)
				}
				for j := range after[i] {
					if !sameFloat(after[i][j], fresh[i][j]) {
						t.Fatalf("vector %d[%d] = %v, fresh %v", i, j, after[i][j], fresh[i][j])
					}
				}
			}
		})
	}
}

// routeKey and sweepKey are the bitwise fingerprints the concurrency
// property test compares.
type routeKey struct {
	phiH, phiL, lambda uint64
	violations         int
}

type sweepKey struct {
	base       uint64
	phiL       []uint64
	surv, disc int
}

func routeFingerprint(r *eval.Result) routeKey {
	return routeKey{
		phiH:       math.Float64bits(r.PhiH),
		phiL:       math.Float64bits(r.PhiL),
		lambda:     math.Float64bits(r.Lambda),
		violations: r.Violations,
	}
}

func sweepFingerprint(sw *resilience.Sweep) sweepKey {
	k := sweepKey{
		base: math.Float64bits(sw.Base),
		surv: sw.Survivors,
		disc: sw.Disconnecting,
	}
	k.phiL = make([]uint64, len(sw.PhiL))
	for i, v := range sw.PhiL {
		k.phiL[i] = math.Float64bits(v)
	}
	return k
}

func sameSweep(a, b sweepKey) bool {
	if a.base != b.base || a.surv != b.surv || a.disc != b.disc || len(a.phiL) != len(b.phiL) {
		return false
	}
	for i := range a.phiL {
		if a.phiL[i] != b.phiL[i] {
			return false
		}
	}
	return true
}

// TestConcurrentSessionsBitwiseEqualSequential is the headline property of
// the pool: N goroutines hammering route and what-if queries on one shared
// handle produce, query for query, results bitwise equal to a sequential
// hand-wired evaluator and sweeper. Run under -race this also proves the
// lease protocol isolates session state.
func TestConcurrentSessionsBitwiseEqualSequential(t *testing.T) {
	h := loadTestHandle(t, PoolConfig{Size: 4})
	inst := h.Instance()
	nArcs := inst.G.NumEdges()

	states, err := resilience.Enumerate(inst.G, resilience.Model{Kind: "link"})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(states) > 8 {
		states = states[:8]
	}

	const queries = 24
	// Sequential baseline: one hand-wired evaluator + sweeper, all queries
	// in order.
	ref, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
	if err != nil {
		t.Fatalf("eval.New: %v", err)
	}
	ref.SetRouteWorkers(1)
	refSweep := resilience.NewSweeper(ref, resilience.Options{})

	wantRoute := make([]routeKey, queries)
	wantSweep := make([]sweepKey, queries)
	for q := 0; q < queries; q++ {
		w := perturb(nArcs, q)
		r, err := ref.EvaluateSTR(w)
		if err != nil {
			t.Fatalf("baseline route %d: %v", q, err)
		}
		wantRoute[q] = routeFingerprint(r)
		sw, err := refSweep.SweepSTR(w, states)
		if err != nil {
			t.Fatalf("baseline sweep %d: %v", q, err)
		}
		wantSweep[q] = sweepFingerprint(sw)
	}

	// Concurrent replay: each query leases its own session off the shared
	// handle; goroutines interleave freely.
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			s, err := h.Session(context.Background())
			if err != nil {
				errs <- err
				return
			}
			defer func() {
				if err := h.Release(s); err != nil {
					errs <- err
				}
			}()
			w := perturb(nArcs, q)
			r, err := s.EvaluateSTR(w)
			if err != nil {
				errs <- err
				return
			}
			if routeFingerprint(r) != wantRoute[q] {
				t.Errorf("query %d: concurrent route differs from sequential", q)
			}
			sw, err := s.SweepSTR(w, states)
			if err != nil {
				errs <- err
				return
			}
			if !sameSweep(sweepFingerprint(sw), wantSweep[q]) {
				t.Errorf("query %d: concurrent sweep differs from sequential", q)
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query: %v", err)
	}
}

func TestPoolExhaustionAndLeaseTimeout(t *testing.T) {
	h := loadTestHandle(t, PoolConfig{Size: 1, LeaseTimeout: 30 * time.Millisecond})
	s, err := h.Session(context.Background())
	if err != nil {
		t.Fatalf("first Session: %v", err)
	}
	if _, err := h.Session(context.Background()); !errors.Is(err, ErrLeaseTimeout) {
		t.Fatalf("second Session err = %v, want ErrLeaseTimeout", err)
	}
	// Context cancellation preempts the timeout.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.Session(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Session err = %v, want context.Canceled", err)
	}
	if err := h.Release(s); err != nil {
		t.Fatalf("Release: %v", err)
	}
	// Released session is reusable.
	s2, err := h.Session(context.Background())
	if err != nil {
		t.Fatalf("Session after release: %v", err)
	}
	if s2 != s {
		t.Fatalf("pool did not reuse the released session")
	}
	if err := h.Release(s2); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

// abandonSweep leaves a sweeper-side checkpoint armed the way a served
// /whatif can: a state naming an arc the graph does not have panics between
// the state's Checkpoint and its Revert, and the caller (net/http, for a
// handler) recovers the panic while the deferred release still pools the
// session.
func abandonSweep(t *testing.T, s *Session, wH, wL spf.Weights) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("sweep over an out-of-range arc did not panic")
		}
	}()
	bogus := resilience.State{Label: "bogus", Arcs: []graph.EdgeID{graph.EdgeID(len(wH))}}
	s.SweepDTR(wH, wL, []resilience.State{bogus}) //nolint:errcheck
}

// TestLeakedCheckpointDetectedOnRelease is the stale-state foot-gun test: a
// session released with an armed checkpoint on a routing state it owns must
// be flagged, counted AND reset, so the next lease of the pooled session
// starts clean and still routes and sweeps bitwise-correctly.
func TestLeakedCheckpointDetectedOnRelease(t *testing.T) {
	h := loadTestHandle(t, PoolConfig{Size: 1})
	inst := h.Instance()
	wH, wL := perturb(inst.G.NumEdges(), 1), perturb(inst.G.NumEdges(), 2)
	states, err := resilience.Enumerate(inst.G, resilience.Model{Kind: "link"})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}

	s, err := h.Session(context.Background())
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	abandonSweep(t, s, wH, wL)
	if !s.checkpointArmed() {
		t.Fatal("abandoned sweep left no armed checkpoint")
	}
	leaks := met.leakedCheckpoints.Value()
	if err := h.Release(s); !errors.Is(err, ErrLeakedCheckpoint) {
		t.Fatalf("Release err = %v, want ErrLeakedCheckpoint", err)
	}
	if got := met.leakedCheckpoints.Value(); got != leaks+1 {
		t.Fatalf("engine_leaked_checkpoints_total moved by %d, want 1", got-leaks)
	}

	// The pooled session must come back disarmed and fully usable.
	s2, err := h.Session(context.Background())
	if err != nil {
		t.Fatalf("Session after leak: %v", err)
	}
	if s2 != s {
		t.Fatal("pool did not reuse the released session")
	}
	if s2.checkpointArmed() {
		t.Fatal("re-leased session still has an armed checkpoint")
	}
	ref, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
	if err != nil {
		t.Fatalf("eval.New: %v", err)
	}
	ref.SetRouteWorkers(1)
	want, err := ref.EvaluateSTR(wH)
	if err != nil {
		t.Fatalf("ref EvaluateSTR: %v", err)
	}
	got, err := s2.EvaluateSTR(wH)
	if err != nil {
		t.Fatalf("EvaluateSTR after reset: %v", err)
	}
	if routeFingerprint(got) != routeFingerprint(want) {
		t.Fatalf("post-leak session result differs from hand-wired evaluator")
	}
	wantSweep, err := resilience.NewSweeper(ref, resilience.Options{}).SweepDTR(wH, wL, states)
	if err != nil {
		t.Fatalf("ref SweepDTR: %v", err)
	}
	gotSweep, err := s2.SweepDTR(wH, wL, states)
	if err != nil {
		t.Fatalf("SweepDTR after reset: %v", err)
	}
	if !sameFloat(gotSweep.Base, wantSweep.Base) || len(gotSweep.PhiL) != len(wantSweep.PhiL) {
		t.Fatalf("post-leak sweep base %v != hand-wired %v", gotSweep.Base, wantSweep.Base)
	}
	for i := range gotSweep.PhiL {
		if !sameFloat(gotSweep.PhiL[i], wantSweep.PhiL[i]) {
			t.Fatalf("post-leak sweep state %d: %v != hand-wired %v", i, gotSweep.PhiL[i], wantSweep.PhiL[i])
		}
	}
	if err := h.Release(s2); err != nil {
		t.Fatalf("clean Release err = %v", err)
	}
}

func TestSessionReset(t *testing.T) {
	h := loadTestHandle(t, PoolConfig{})
	inst := h.Instance()
	w := perturb(inst.G.NumEdges(), 4)

	s, err := h.Session(context.Background())
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer h.Release(s) //nolint:errcheck

	abandonSweep(t, s, w, w)
	if _, err := s.Evaluator().State(eval.RouteSTR).Apply([2]spf.Weights{w}, nil); err != nil {
		t.Fatalf("STR state Apply: %v", err)
	}
	resets := met.resets.Value()
	s.Reset()
	if s.checkpointArmed() {
		t.Fatal("Reset left the checkpoint armed")
	}
	if s.sw != nil {
		t.Fatal("Reset kept the sweeper")
	}
	if got := met.resets.Value(); got != resets+1 {
		t.Fatalf("engine_session_resets_total moved by %d, want 1", got-resets)
	}
	// The evaluator's delta state is dropped too: the next delta call may
	// claim nothing changed and must still route w2 from scratch.
	w2 := perturb(inst.G.NumEdges(), 5)
	if _, err := s.Evaluator().State(eval.RouteSTR).Apply([2]spf.Weights{w2}, nil); err != nil {
		t.Fatalf("STR state Apply after Reset: %v", err)
	}
	if _, err := s.Evaluator().Verify(eval.RouteSTR, [2]spf.Weights{w2}); err != nil {
		t.Fatalf("delta after Reset: %v", err)
	}
}

func TestHandleClose(t *testing.T) {
	h, err := Load(Spec{Name: "close-test", Instance: testSpec()})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	s, err := h.Session(context.Background())
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	h.Close()
	if _, err := h.Session(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session after Close err = %v, want ErrClosed", err)
	}
	// In-flight sessions still release cleanly (dropped, not pooled).
	if err := h.Release(s); err != nil {
		t.Fatalf("Release after Close: %v", err)
	}
	h.Close() // double Close is a no-op
}

func TestReleaseForeignSession(t *testing.T) {
	h1 := loadTestHandle(t, PoolConfig{})
	h2 := loadTestHandle(t, PoolConfig{})
	s, err := h1.Session(context.Background())
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if err := h2.Release(s); !errors.Is(err, ErrForeignSession) {
		t.Fatalf("foreign Release err = %v, want ErrForeignSession", err)
	}
	if err := h1.Release(s); err != nil {
		t.Fatalf("home Release: %v", err)
	}
}

func TestCompareUnderFailuresMatchesDirect(t *testing.T) {
	h := loadTestHandle(t, PoolConfig{})
	inst := h.Instance()
	nArcs := inst.G.NumEdges()
	wSTR := perturb(nArcs, 1)
	wH := perturb(nArcs, 2)
	wL := perturb(nArcs, 3)

	states, err := resilience.Enumerate(inst.G, resilience.Model{Kind: "link"})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(states) > 6 {
		states = states[:6]
	}

	ref, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
	if err != nil {
		t.Fatalf("eval.New: %v", err)
	}
	ref.SetRouteWorkers(1)
	refSweep := resilience.NewSweeper(ref, resilience.Options{})
	want, err := resilience.CompareSchemes(refSweep, wSTR, wH, wL, states)
	if err != nil {
		t.Fatalf("direct CompareSchemes: %v", err)
	}

	s, err := h.Session(context.Background())
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer h.Release(s) //nolint:errcheck
	got, err := s.CompareUnderFailures(wSTR, wH, wL, states)
	if err != nil {
		t.Fatalf("session CompareUnderFailures: %v", err)
	}
	if !sameFloat(got.BaseSTR, want.BaseSTR) || !sameFloat(got.BaseDTR, want.BaseDTR) ||
		got.Disconnecting != want.Disconnecting || len(got.STR) != len(want.STR) {
		t.Fatalf("session compare header differs: got %+v want %+v", got, want)
	}
	for i := range got.STR {
		if !sameFloat(got.STR[i], want.STR[i]) || !sameFloat(got.DTR[i], want.DTR[i]) {
			t.Fatalf("sample %d differs: got (%g,%g) want (%g,%g)",
				i, got.STR[i], got.DTR[i], want.STR[i], want.DTR[i])
		}
	}
}

// TestSweepsShareTheSessionStates pins router sharing on one session: a
// search leaves the evaluator without routing states, and the sweeps that
// follow run on Evaluator().State(RouteSTR/RouteDTR) — every state is one
// checkpoint → apply → revert on exactly those routers — with results
// bitwise-equal to a hand-wired sweeper's. An abandoned sweep on the shared
// state still trips ErrLeakedCheckpoint.
func TestSweepsShareTheSessionStates(t *testing.T) {
	h := loadTestHandle(t, PoolConfig{Size: 1})
	inst := h.Instance()
	states, err := resilience.Enumerate(inst.G, resilience.Model{Kind: "link", Sample: 8, Seed: 3})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	s, err := h.Session(context.Background())
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	ev := s.Evaluator()

	b := search.SmokeBudget()
	str, err := search.STR(ev, b.STR)
	if err != nil {
		t.Fatalf("STR search: %v", err)
	}
	dtr, err := search.DTRFrom(ev, str.W, str.W, b.DTR)
	if err != nil {
		t.Fatalf("DTR search: %v", err)
	}
	stSTR, stDTR := ev.State(eval.RouteSTR), ev.State(eval.RouteDTR)
	for _, st := range []*eval.RoutingState{stSTR, stDTR} {
		if st.Valid() || st.Router(eval.High).Stats() != (spf.DeltaStats{}) {
			t.Fatal("the search left a routing state on the evaluator")
		}
	}

	ref, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
	if err != nil {
		t.Fatalf("eval.New: %v", err)
	}
	ref.SetRouteWorkers(1)
	refSweep := resilience.NewSweeper(ref, resilience.Options{})
	same := func(what string, got, want *resilience.Sweep) {
		t.Helper()
		if !sameSweep(sweepFingerprint(got), sweepFingerprint(want)) {
			t.Fatalf("%s on the shared state differs from a hand-wired sweeper's", what)
		}
	}
	// reverts checks that every swept state so far was rolled back on the
	// evaluator's own routers: n per router of each scheme.
	reverts := func(what string, nSTR, nDTR int) {
		t.Helper()
		if ev.State(eval.RouteSTR) != stSTR || ev.State(eval.RouteDTR) != stDTR {
			t.Fatalf("%s: the evaluator's states were replaced", what)
		}
		for _, r := range []struct {
			dr   *spf.DeltaRouter
			want int
		}{{stSTR.Router(eval.High), nSTR}, {stDTR.Router(eval.High), nDTR}, {stDTR.Router(eval.Low), nDTR}} {
			if got := r.dr.Stats().Reverts; got != int64(r.want) {
				t.Fatalf("%s: %d reverts on an evaluator router, want %d", what, got, r.want)
			}
		}
	}

	got, err := s.SweepSTR(str.W, states)
	if err != nil {
		t.Fatalf("SweepSTR: %v", err)
	}
	want, err := refSweep.SweepSTR(str.W, states)
	if err != nil {
		t.Fatalf("ref SweepSTR: %v", err)
	}
	same("SweepSTR", got, want)
	reverts("SweepSTR", len(states), 0)

	got, err = s.SweepDTR(dtr.WH, dtr.WL, states)
	if err != nil {
		t.Fatalf("SweepDTR: %v", err)
	}
	want, err = refSweep.SweepDTR(dtr.WH, dtr.WL, states)
	if err != nil {
		t.Fatalf("ref SweepDTR: %v", err)
	}
	same("SweepDTR", got, want)
	reverts("SweepDTR", len(states), len(states))

	cmp, err := s.CompareUnderFailures(str.W, dtr.WH, dtr.WL, states)
	if err != nil {
		t.Fatalf("CompareUnderFailures: %v", err)
	}
	wantCmp, err := resilience.CompareSchemes(refSweep, str.W, dtr.WH, dtr.WL, states)
	if err != nil {
		t.Fatalf("ref CompareSchemes: %v", err)
	}
	if !sameFloat(cmp.BaseSTR, wantCmp.BaseSTR) || !sameFloat(cmp.BaseDTR, wantCmp.BaseDTR) || len(cmp.DTR) != len(wantCmp.DTR) {
		t.Fatal("CompareUnderFailures on the shared states differs from a hand-wired comparison")
	}
	for i := range cmp.DTR {
		if !sameFloat(cmp.STR[i], wantCmp.STR[i]) || !sameFloat(cmp.DTR[i], wantCmp.DTR[i]) {
			t.Fatalf("compare sample %d differs from a hand-wired comparison", i)
		}
	}
	reverts("CompareUnderFailures", 2*len(states), 2*len(states))

	abandonSweep(t, s, dtr.WH, dtr.WL)
	if !ev.DeltaCheckpointArmed() {
		t.Fatal("abandoned sweep left no armed checkpoint on the evaluator's state")
	}
	if err := h.Release(s); !errors.Is(err, ErrLeakedCheckpoint) {
		t.Fatalf("Release err = %v, want ErrLeakedCheckpoint", err)
	}
}
