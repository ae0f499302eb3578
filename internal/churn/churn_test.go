package churn

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dualtopo/internal/cost"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// testEval builds a 4x5 torus instance (4-edge-connected: single link or
// node outages never disconnect it) with gravity LP and random HP demand.
func testEval(t testing.TB, kind eval.Kind, seed uint64) *eval.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	g, err := topo.Generate("torus", topo.Params{Rows: 4, Cols: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tl := traffic.Gravity(g.NumNodes(), rng)
	th, err := traffic.RandomHighPriority(g.NumNodes(), 0.1, 0.1, tl.Total(), rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := eval.New(g, th, tl, eval.Options{Kind: kind, SLA: cost.DefaultSLA()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testWeights returns deterministic non-uniform weight settings.
func testWeights(g *graph.Graph, seed uint64) (wH, wL spf.Weights) {
	rng := rand.New(rand.NewPCG(seed, 5))
	wH = make(spf.Weights, g.NumEdges())
	wL = make(spf.Weights, g.NumEdges())
	for i := range wH {
		wH[i] = 1 + rng.IntN(20)
		wL[i] = 1 + rng.IntN(20)
	}
	return wH, wL
}

// testTimeline generates a busy deterministic timeline on g.
func testTimeline(t testing.TB, g *graph.Graph, seed uint64) *Timeline {
	t.Helper()
	tl, err := Generate(g, GenSpec{
		Seed:       seed,
		Horizon:    300,
		LinkMTBF:   120,
		LinkMTTR:   5,
		WeightRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) < 20 {
		t.Fatalf("timeline too quiet: %d events", len(tl.Events))
	}
	return tl
}

func TestGenerateDeterministic(t *testing.T) {
	e := testEval(t, eval.LoadBased, 1)
	spec := GenSpec{Seed: 42, Horizon: 200, LinkMTBF: 100, LinkMTTR: 8, NodeMTBF: 500, NodeMTTR: 30, WeightRate: 0.1}
	a, err := Generate(e.Graph(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(e.Graph(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different timelines")
	}
	spec.Seed = 43
	c, err := Generate(e.Graph(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical timelines")
	}
	// Intensity scales event counts up.
	spec.Seed = 42
	spec.Intensity = 3
	d, err := Generate(e.Graph(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) <= len(a.Events) {
		t.Fatalf("intensity 3 produced %d events, base %d", len(d.Events), len(a.Events))
	}
	for _, tl := range []*Timeline{a, c, d} {
		if err := tl.Validate(e.Graph()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	e := testEval(t, eval.LoadBased, 2)
	tl := testTimeline(t, e.Graph(), 7)
	var buf bytes.Buffer
	if err := tl.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, got) {
		t.Fatalf("round trip mismatch: %d events -> %d, horizon %g -> %g",
			len(tl.Events), len(got.Events), tl.Horizon, got.Horizon)
	}
	// Headerless streams load with the horizon defaulting to the last event.
	var bare bytes.Buffer
	enc := json.NewEncoder(&bare)
	for i := range tl.Events {
		if err := enc.Encode(&tl.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err = ReadTrace(&bare)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl.Events, got.Events) {
		t.Fatal("headerless round trip mismatch")
	}
	if got.Horizon != tl.Events[len(tl.Events)-1].T {
		t.Fatalf("headerless horizon = %g", got.Horizon)
	}
	// Malformed input names the line.
	if _, err := ReadTrace(strings.NewReader("{\"t\":1,\"kind\":\"link-down\",\"target\":\"a-b\"}\n{\"t\":2,\"kind\":\"nope\",\"target\":\"x\"}\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("bad kind error = %v", err)
	}
}

// TestReadTraceRefusesTrailingData: a line is one event. A second value, or
// any other non-space after the first, fails the read and names the line;
// trailing whitespace does not.
func TestReadTraceRefusesTrailingData(t *testing.T) {
	const ev = `{"t":1,"kind":"link-down","target":"a-b"}`
	for _, tail := range []string{` {"t":2,"kind":"link-up","target":"a-b"}`, ` {"nonsense":[`, `x`, `}`} {
		in := ev + "\n" + ev + tail + "\n"
		if _, err := ReadTrace(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("tail %q: error %v, want one naming line 2", tail, err)
		}
	}
	tl, err := ReadTrace(strings.NewReader(ev + " \t\r\n"))
	if err != nil || len(tl.Events) != 1 {
		t.Fatalf("whitespace tail: %d events, error %v", len(tl.Events), err)
	}
}

// replaySeries replays tl and returns the record stream as JSON bytes with
// the wall-clock field zeroed — the determinism unit of comparison.
func replaySeries(t testing.TB, e *eval.Evaluator, wH, wL spf.Weights, tl *Timeline, opts Options) ([]byte, *Summary) {
	t.Helper()
	rep, err := NewReplayer(e, wH, wL, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	sum, err := rep.Run(tl, func(rec *Record) error {
		c := *rec
		c.RerouteNs = 0
		return enc.Encode(&c)
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

func TestReplayDeterministicAcrossWorkersAndRuns(t *testing.T) {
	e := testEval(t, eval.SLABased, 3)
	wH, wL := testWeights(e.Graph(), 3)
	tl := testTimeline(t, e.Graph(), 11)
	var first []byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got, _ := replaySeries(t, e, wH, wL, tl, Options{Verify: true, RouteWorkers: workers})
		if first == nil {
			first = got
			continue
		}
		if !bytes.Equal(first, got) {
			t.Fatalf("time series differs at RouteWorkers=%d", workers)
		}
	}
	// And across an independent replayer, on an evaluator of its own, over a
	// regenerated timeline.
	tl2 := testTimeline(t, e.Graph(), 11)
	got, _ := replaySeries(t, e.Clone(), wH, wL, tl2, Options{})
	if !bytes.Equal(first, got) {
		t.Fatal("re-generated timeline replay differs")
	}
}

// bridgeInstance builds two triangles joined by one bridge, with HP and LP
// demand crossing it, so downing the bridge disconnects both classes.
func bridgeInstance(t *testing.T, kind eval.Kind) (*eval.Evaluator, spf.Weights, spf.Weights) {
	t.Helper()
	g := graph.New(6)
	g.AddLink(0, 1, 500, 1)
	g.AddLink(1, 2, 500, 1)
	g.AddLink(2, 0, 500, 1)
	g.AddLink(3, 4, 500, 1)
	g.AddLink(4, 5, 500, 1)
	g.AddLink(5, 3, 500, 1)
	g.AddLink(2, 3, 500, 1)
	th := traffic.NewMatrix(6)
	th.Set(0, 4, 30) // crosses the bridge
	th.Set(1, 2, 10)
	tlm := traffic.NewMatrix(6)
	tlm.Set(5, 0, 80) // crosses the bridge
	tlm.Set(3, 5, 40)
	tlm.Set(0, 2, 60)
	e, err := eval.New(g, th, tlm, eval.Options{Kind: kind, SLA: cost.DefaultSLA()})
	if err != nil {
		t.Fatal(err)
	}
	w := spf.Uniform(g.NumEdges())
	return e, w, append(spf.Weights(nil), w...)
}

func TestDisconnectionWindowAndRecovery(t *testing.T) {
	e, wH, wL := bridgeInstance(t, eval.SLABased)
	tl := &Timeline{Horizon: 100, Events: []Event{
		{T: 10, Kind: WeightSet, Target: "n0-n1", WH: 3, WL: 2},
		{T: 20, Kind: LinkDown, Target: "n2-n3"}, // partition
		{T: 25, Kind: WeightSet, Target: "n3-n4", WH: 2},
		{T: 30, Kind: LinkUp, Target: "n2-n3"}, // heal
		{T: 40, Kind: NodeDown, Target: "n5"},
		{T: 50, Kind: NodeUp, Target: "n5"},
	}}
	rep, err := NewReplayer(e, wH, wL, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	sum, err := rep.Run(tl, func(r *Record) error {
		c := *r
		c.DisconnectedSample = append([]string(nil), r.DisconnectedSample...)
		recs = append(recs, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// recs[0] is the start record; events are 1-indexed from there.
	down := recs[2]
	if !down.Disconnected || down.DisconnectedPairs != 1 {
		t.Fatalf("bridge down record = %+v", down)
	}
	if len(down.DisconnectedSample) != 1 || down.DisconnectedSample[0] != "n0->n4" {
		t.Fatalf("disconnected sample = %v", down.DisconnectedSample)
	}
	if down.ViolationMass != 30 {
		t.Fatalf("disconnected mass = %v, want the 30 Mbps crossing pair", down.ViolationMass)
	}
	if mid := recs[3]; !mid.Disconnected {
		t.Fatalf("weight-set during the outage should stay disconnected: %+v", mid)
	}
	up := recs[4]
	if up.Disconnected || !up.FullRoute {
		t.Fatalf("heal record = %+v, want connected full-route recovery", up)
	}
	if up.PhiH == recs[1].PhiH {
		// The weight-set applied during the outage persists after the heal,
		// so the restored state must differ from the pre-outage one. (Verify
		// mode already proved it bitwise-matches a fresh full evaluation.)
		t.Fatalf("post-heal ΦH %v ignored the mid-outage weight-set", up.PhiH)
	}
	// Downing n5 strands its low-priority demand: a pure-LP disconnection,
	// reported with zero HP pairs and zero HP mass.
	if nd := recs[5]; !nd.Disconnected || nd.DisconnectedPairs != 0 || nd.ViolationMass != 0 {
		t.Fatalf("node-down record = %+v", nd)
	}
	if sum.Disconnects != 3 || sum.FullRoutes != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	// The outage window [20,30) charges the crossing 30 Mbps.
	if sum.ViolationMbpsSec < 30*10 {
		t.Fatalf("violation integral %v < outage charge 300", sum.ViolationMbpsSec)
	}
}

func TestCounterfactualMatchesCumulativeFirstEvent(t *testing.T) {
	e := testEval(t, eval.SLABased, 4)
	wH, wL := testWeights(e.Graph(), 4)
	tl := testTimeline(t, e.Graph(), 13)
	cf, err := NewReplayer(e, wH, wL, Options{Counterfactual: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Start(); err != nil {
		t.Fatal(err)
	}
	// Every counterfactual record must equal a cumulative replay of just
	// that event, restarted per event on a routing state of its own.
	single, err := NewReplayer(e.Clone(), wH, wL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tl.Events {
		if i >= 12 {
			break
		}
		got, err := cf.Step(&tl.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		gotCopy := *got
		if _, err := single.Start(); err != nil {
			t.Fatal(err)
		}
		want, err := single.Step(&tl.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		if gotCopy.PhiH != want.PhiH || gotCopy.PhiL != want.PhiL ||
			gotCopy.Lambda != want.Lambda || gotCopy.MaxUtil != want.MaxUtil ||
			gotCopy.Disconnected != want.Disconnected {
			t.Fatalf("event %d: counterfactual %+v != fresh single-event %+v", i, gotCopy, *want)
		}
	}
}

// TestCounterfactualLeakDetector is the checkpoint/revert property test:
// after replaying a whole timeline of link, node and weight-set events
// counterfactually, every router tree, load vector, weight buffer and
// maintained cost vector must be bitwise identical to those of a freshly
// built replayer on an evaluator of its own.
func TestCounterfactualLeakDetector(t *testing.T) {
	e := testEval(t, eval.SLABased, 5)
	wH, wL := testWeights(e.Graph(), 5)
	tl, err := Generate(e.Graph(), GenSpec{
		Seed: 17, Horizon: 300, LinkMTBF: 120, LinkMTTR: 5,
		NodeMTBF: 200, NodeMTTR: 20, WeightRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]int{}
	for _, ev := range tl.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []Kind{LinkDown, LinkUp, NodeDown, NodeUp, WeightSet} {
		if kinds[k] == 0 {
			t.Fatalf("timeline has no %s event (%v); pick another seed", k, kinds)
		}
	}
	used, err := NewReplayer(e, wH, wL, Options{Counterfactual: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := used.Start(); err != nil {
		t.Fatal(err)
	}
	for i := range tl.Events {
		if _, err := used.Step(&tl.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewReplayer(e.Clone(), wH, wL, Options{Counterfactual: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Start(); err != nil {
		t.Fatal(err)
	}
	compare := func(name string, a, b interface{}) {
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("replayed-with-revert %s differs from fresh build:\n%+v\n%+v", name, a, b)
		}
	}
	compare("buf", used.buf, fresh.buf)
	compare("cfg", used.cfg, fresh.cfg)
	compare("linkDown", used.linkDown, fresh.linkDown)
	compare("nodeDown", used.nodeDown, fresh.nodeDown)
	compare("down counts", [2]int{used.downLinks, used.downNodes}, [2]int{fresh.downLinks, fresh.downNodes})
	for c := range used.buf {
		a, b := used.st.Router(c), fresh.st.Router(c)
		compare("loads", a.Loads, b.Loads)
		compare("router weights", a.Weights(), b.Weights())
	}
	for _, dest := range used.hpDests {
		a, b := used.st.Router(eval.High).Tree(dest), fresh.st.Router(eval.High).Tree(dest)
		compare("tree dist", a.Dist, b.Dist)
		compare("tree next starts", a.NextStart, b.NextStart)
		compare("tree next arcs", a.NextArcs, b.NextArcs)
	}
	// The score vectors are the routing state's own (eval pins them against
	// a fresh state after every revert); from here they show through every
	// reduction, at rest and after one more event.
	var recs [2]Record
	for i, r := range []*Replayer{used, fresh} {
		r.scoreSteady(&recs[i])
	}
	compare("steady reductions", recs[0], recs[1])
	for i, r := range []*Replayer{used, fresh} {
		rec, err := r.Step(&Event{T: tl.Horizon, Kind: LinkDown, Target: LinkTarget(e.Graph(), 0)})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = *rec
		recs[i].Index, recs[i].RerouteNs = 0, 0
		// A record reuses the sample slice of an earlier disconnected one.
		recs[i].DisconnectedSample = append([]string(nil), rec.DisconnectedSample...)
	}
	compare("next event's record", recs[0], recs[1])
}

// TestReplayLeavesEvaluatorStateAtFinalRouting checks that the replayer
// drives its evaluator's DTR state rather than one of its own: after a
// cumulative replay, e.State(RouteDTR) routes the final effective weights
// and reads the objectives a from-scratch evaluation of them gives. A
// verified replay runs on a clone and leaves its evaluator's state alone.
func TestReplayLeavesEvaluatorStateAtFinalRouting(t *testing.T) {
	e := testEval(t, eval.SLABased, 7)
	wH, wL := testWeights(e.Graph(), 7)
	tl := testTimeline(t, e.Graph(), 29)
	rep, err := NewReplayer(e, wH, wL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last Record
	if _, err := rep.Run(tl, func(rec *Record) error { last = *rec; return nil }); err != nil {
		t.Fatal(err)
	}
	if last.Disconnected {
		t.Fatal("timeline ends disconnected; pick another seed")
	}
	// The final effective weights, rebuilt from the timeline alone.
	g := e.Graph()
	cfg := [2]spf.Weights{wH.Clone(), wL.Clone()}
	linkDown := make([]bool, g.NumEdges())
	nodeDown := make([]bool, g.NumNodes())
	for i := range tl.Events {
		ev := &tl.Events[i]
		node, uv, vu, err := resolveTarget(g, ev)
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case LinkDown, LinkUp:
			linkDown[uv], linkDown[vu] = ev.Kind == LinkDown, ev.Kind == LinkDown
		case NodeDown, NodeUp:
			nodeDown[node] = ev.Kind == NodeDown
		case WeightSet:
			for c, w := range [2]int{ev.WH, ev.WL} {
				if w > 0 {
					cfg[c][uv], cfg[c][vu] = w, w
				}
			}
		}
	}
	want := [2]spf.Weights{cfg[0].Clone(), cfg[1].Clone()}
	for a := range linkDown {
		arc := g.Edge(graph.EdgeID(a))
		if linkDown[a] || nodeDown[arc.From] || nodeDown[arc.To] {
			want[0][a], want[1][a] = spf.Disabled, spf.Disabled
		}
	}
	if reflect.DeepEqual(want[0], wH) {
		t.Fatal("timeline leaves the high weights intact; pick another seed")
	}
	st := e.State(eval.RouteDTR)
	if !st.Valid() {
		t.Fatal("evaluator's DTR state is not routed after the replay")
	}
	for c := range want {
		if got := st.Router(c).Weights(); !reflect.DeepEqual(got, want[c]) {
			t.Fatalf("class %d: evaluator's DTR state routes %v, want the final effective weights %v", c, got, want[c])
		}
	}
	full, err := e.Clone().EvaluateDTR(want[0], want[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.PhiH() != full.PhiH || st.PhiL() != full.PhiL || last.PhiH != full.PhiH || last.PhiL != full.PhiL {
		t.Fatalf("state Φ (%v, %v), last record (%v, %v), full (%v, %v)",
			st.PhiH(), st.PhiL(), last.PhiH, last.PhiL, full.PhiH, full.PhiL)
	}

	e.ResetDelta()
	verified, err := NewReplayer(e, wH, wL, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verified.Run(tl, nil); err != nil {
		t.Fatal(err)
	}
	if e.State(eval.RouteDTR).Valid() {
		t.Fatal("a verified replay routed its caller's evaluator")
	}
}

func TestConvergenceStrictlyMoreMass(t *testing.T) {
	e := testEval(t, eval.SLABased, 6)
	wH, wL := testWeights(e.Graph(), 6)
	tl := testTimeline(t, e.Graph(), 19)
	_, instant := replaySeries(t, e, wH, wL, tl, Options{})
	series, conv := replaySeries(t, e, wH, wL, tl, Options{Convergence: ConvergenceOptions{Enabled: true}})
	if conv.TransientMbpsSec <= 0 {
		t.Fatalf("convergence mode measured no transient loss over %d events", conv.Events)
	}
	if conv.TotalMbpsSec <= instant.TotalMbpsSec {
		t.Fatalf("convergence total %v not strictly above instantaneous %v",
			conv.TotalMbpsSec, instant.TotalMbpsSec)
	}
	if instant.TransientMbpsSec != 0 {
		t.Fatalf("instantaneous mode scored a transient: %v", instant.TransientMbpsSec)
	}
	if conv.ViolationMbpsSec != instant.ViolationMbpsSec {
		t.Fatalf("steady integral changed under convergence mode: %v != %v",
			conv.ViolationMbpsSec, instant.ViolationMbpsSec)
	}
	if !bytes.Contains(series, []byte(`"transient"`)) {
		t.Fatal("convergence series lacks transient records")
	}
	if conv.MaxWindowMs <= 0 || conv.Blackholes+conv.MicroLoops == 0 {
		t.Fatalf("transient summary = %+v", conv)
	}
}

func TestStepErrorsAreActionable(t *testing.T) {
	e := testEval(t, eval.LoadBased, 8)
	wH, wL := testWeights(e.Graph(), 8)
	rep, err := NewReplayer(e, wH, wL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(&Event{T: 1, Kind: LinkDown, Target: "bogus-x"}); err == nil ||
		!strings.Contains(err.Error(), "event 0") || !strings.Contains(err.Error(), "bogus-x") {
		t.Fatalf("unknown target error = %v", err)
	}
	if _, err := rep.Step(&Event{T: 5, Kind: WeightSet, Target: "r0c0-r0c1"}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("payload error = %v", err)
	}
	if _, err := rep.Step(&Event{T: 3, Kind: LinkUp, Target: "r0c0-r0c1"}); err == nil {
		t.Fatal("unsorted timeline accepted")
	} else if !strings.Contains(err.Error(), "unsorted") {
		t.Fatalf("unsorted error = %v", err)
	}
	if rep2, _ := NewReplayer(e, wH, wL, Options{Counterfactual: true, Convergence: ConvergenceOptions{Enabled: true}}); rep2 != nil {
		t.Fatal("counterfactual+convergence accepted")
	}
}

func TestWarmReplayZeroAlloc(t *testing.T) {
	e := testEval(t, eval.SLABased, 9)
	wH, wL := testWeights(e.Graph(), 9)
	tl := testTimeline(t, e.Graph(), 23)
	for _, opt := range []Options{{}, {Convergence: ConvergenceOptions{Enabled: true}}} {
		rep, err := NewReplayer(e, wH, wL, opt)
		if err != nil {
			t.Fatal(err)
		}
		replay := func() error {
			if _, err := rep.Start(); err != nil {
				return err
			}
			for i := range tl.Events {
				rec, err := rep.Step(&tl.Events[i])
				if err != nil {
					return err
				}
				if rec.Disconnected {
					t.Fatal("timeline disconnects the torus; pick another seed")
				}
			}
			rep.Finish(tl.Horizon)
			return nil
		}
		if err := replay(); err != nil { // warm up
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(5, func() {
			if err := replay(); err != nil {
				panic(err)
			}
		}); n != 0 {
			t.Fatalf("warm replay (convergence=%v) allocates %v per run, want 0",
				opt.Convergence.Enabled, n)
		}
	}
}

func TestViolationMassIntegration(t *testing.T) {
	e, wH, wL := bridgeInstance(t, eval.SLABased)
	rep, err := NewReplayer(e, wH, wL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	start, err := rep.Start()
	if err != nil {
		t.Fatal(err)
	}
	base := start.ViolationMass
	sum := rep.Finish(50)
	if want := base * 50; sum.ViolationMbpsSec != want {
		t.Fatalf("empty-timeline integral = %v, want %v", sum.ViolationMbpsSec, want)
	}
}
