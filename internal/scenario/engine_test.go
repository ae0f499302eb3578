package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"dualtopo/internal/instance"
)

// fastSpec is a campaign small enough for unit tests: a real 30-node
// topology but minimal search budgets.
func fastSpec() Spec {
	s := validSpec()
	s.Name = "fast"
	s.Loads = []float64{0.5, 0.7}
	s.Trials = 2
	s.Budget = BudgetSpec{Tier: "tiny", DTRIters: 30, DTRRefine: 20, STRIters: 60}
	return s
}

// TestRunDeterministicAcrossWorkers is the engine's core contract: the same
// spec must produce byte-identical aggregates at any worker count — and at
// any SPF route-worker count — and across repeated runs.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var blobs [][]byte
	var streams []string
	configs := []Options{
		{Workers: 1},
		{Workers: 4},
		{Workers: 1},                  // repeat-run check
		{Workers: 2, RouteWorkers: 4}, // parallel full-route inside trials
	}
	for _, opts := range configs {
		var stream bytes.Buffer
		opts.OnTrial = func(tr TrialResult) {
			// Timing varies run to run; everything else must not.
			tr.ElapsedMs = 0
			stream.WriteString(trKey(tr))
		}
		res, err := Run(fastSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := res.AggregatesJSON()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		streams = append(streams, stream.String())
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("aggregates differ between workers=1 and workers=4:\n%s\nvs\n%s", blobs[0], blobs[1])
	}
	if !bytes.Equal(blobs[0], blobs[2]) {
		t.Errorf("aggregates differ between repeated runs:\n%s\nvs\n%s", blobs[0], blobs[2])
	}
	if !bytes.Equal(blobs[0], blobs[3]) {
		t.Errorf("aggregates differ when RouteWorkers is enabled:\n%s\nvs\n%s", blobs[0], blobs[3])
	}
	for i := 1; i < len(streams); i++ {
		if streams[0] != streams[i] {
			t.Errorf("trial stream order/content depends on config %d", i)
		}
	}
}

func trKey(tr TrialResult) string {
	tr.ElapsedMs = 0
	b, _ := json.Marshal(tr)
	return string(b) + "\n"
}

// TestRunShapeAndCallbacks checks trial ordering, progress counting and the
// summary shape.
func TestRunShapeAndCallbacks(t *testing.T) {
	spec := fastSpec()
	var mu sync.Mutex
	var order []int
	progress := 0
	res, err := Run(spec, Options{
		Workers: 3,
		OnTrial: func(tr TrialResult) {
			mu.Lock()
			order = append(order, tr.Point*spec.Trials+tr.Trial)
			mu.Unlock()
		},
		OnProgress: func(p Progress) {
			mu.Lock()
			progress++
			if p.Total != 4 || p.Done < 1 || p.Done > 4 {
				t.Errorf("bad progress %+v", p)
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 4 {
		t.Fatalf("trials = %d, want 4", len(res.Trials))
	}
	for i, want := range []int{0, 1, 2, 3} {
		if order[i] != want {
			t.Fatalf("OnTrial order = %v, want work-list order", order)
		}
	}
	if progress != 4 {
		t.Fatalf("progress callbacks = %d, want 4", progress)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for i, ps := range res.Points {
		if ps.Trials != 2 {
			t.Errorf("point %d trials = %d, want 2", i, ps.Trials)
		}
		if ps.TargetUtil != spec.Loads[i] {
			t.Errorf("point %d target = %g, want %g", i, ps.TargetUtil, spec.Loads[i])
		}
		// DTR warm-starts from STR, so RL >= 1 up to lexicographic ties and
		// MeasuredUtil must be positive.
		if ps.RL.Mean < 0.99 {
			t.Errorf("point %d RL mean = %g, want >= ~1", i, ps.RL.Mean)
		}
		if ps.MeasuredUtil.Mean <= 0 {
			t.Errorf("point %d measured util = %g", i, ps.MeasuredUtil.Mean)
		}
	}
	if res.SummaryTable() == "" {
		t.Fatal("empty summary table")
	}
	// Every trial records its wall-clock duration and the campaign
	// aggregates them: the p50/p95 must bracket real observed latencies.
	minMs, maxMs := res.Trials[0].ElapsedMs, res.Trials[0].ElapsedMs
	for _, tr := range res.Trials {
		if tr.ElapsedMs <= 0 {
			t.Fatalf("trial %d/%d has no elapsed time", tr.Point, tr.Trial)
		}
		minMs = min(minMs, tr.ElapsedMs)
		maxMs = max(maxMs, tr.ElapsedMs)
	}
	lat := res.TrialLatency
	if lat.P50 < minMs || lat.P50 > maxMs || lat.P95 < minMs || lat.P95 > maxMs {
		t.Fatalf("trial latency aggregate %+v outside observed range [%g, %g]", lat, minMs, maxMs)
	}
	if lat.P95 < lat.P50 || lat.Mean <= 0 {
		t.Fatalf("inconsistent trial latency aggregate %+v", lat)
	}
}

// TestRunWithFailures checks the failure sweep feeds trial records and
// aggregates, for the legacy single-link toggle and a sampled modern model.
func TestRunWithFailures(t *testing.T) {
	spec := fastSpec()
	spec.Topology.Family = instance.TopoISP // small: 35 link failures per trial
	spec.Loads = []float64{0.5}
	spec.Trials = 1
	spec.Failures = FailureSpec{Kind: "link", Sample: 6}
	res, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trials[0]
	if tr.Failures == nil {
		t.Fatal("no failure summary on trial")
	}
	if tr.Failures.Evaluated == 0 || tr.Failures.Evaluated > 6 {
		t.Fatalf("evaluated = %d, want (0,6]", tr.Failures.Evaluated)
	}
	if tr.Failures.Model != "link(sample=6)" {
		t.Fatalf("model = %q, want link(sample=6)", tr.Failures.Model)
	}
	if tr.Failures.STR.MeanDegr <= 0 || tr.Failures.DTR.MeanDegr <= 0 {
		t.Fatalf("degradations = %+v", tr.Failures)
	}
	if tr.Failures.STR.WorstState == "" || tr.Failures.DTR.WorstState == "" {
		t.Fatalf("no worst-state labels: %+v", tr.Failures)
	}
	ps := res.Points[0]
	if ps.STRFailDegr == nil || ps.DTRFailDegr == nil {
		t.Fatal("failure aggregates missing from point summary")
	}
	if ps.STRFailP95 == nil || ps.DTRFailWorst == nil {
		t.Fatal("failure percentile aggregates missing from point summary")
	}
	if tr.Robust != nil || ps.RobustComposite != nil {
		t.Fatal("robust metrics present on a non-robust campaign")
	}

	// A dual-link sampled model on the same instance.
	spec.Failures = FailureSpec{Kind: "link", Count: 2, Sample: 5}
	res, err = Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr = res.Trials[0]
	if tr.Failures == nil || tr.Failures.Model != "dual-link(sample=5)" {
		t.Fatalf("dual-link trial summary = %+v", tr.Failures)
	}
}

// TestRunWithRobustSearch checks the failure-aware search rides through the
// engine: robust metrics on trials and aggregates, deterministic across
// worker counts.
func TestRunWithRobustSearch(t *testing.T) {
	spec := fastSpec()
	spec.Topology.Family = instance.TopoISP
	spec.Loads = []float64{0.5}
	spec.Trials = 2
	spec.Budget = BudgetSpec{Tier: "tiny", DTRIters: 15, DTRRefine: 10, STRIters: 30}
	spec.Failures = FailureSpec{Kind: "link", Sample: 4, Robust: true}
	var blobs [][]byte
	for _, workers := range []int{1, 3} {
		res, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trials[0]
		if tr.Robust == nil {
			t.Fatal("no robust score on trial")
		}
		if tr.Robust.States < 1 || tr.Robust.States > 4 {
			t.Fatalf("robust states = %d, want (0,4]", tr.Robust.States)
		}
		if tr.Robust.WorstState == "" || tr.Robust.Composite <= 0 {
			t.Fatalf("robust score = %+v", tr.Robust)
		}
		if res.Points[0].RobustComposite == nil || res.Points[0].RobustWorstPhiL == nil {
			t.Fatal("robust aggregates missing from point summary")
		}
		blob, err := res.AggregatesJSON()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("robust aggregates differ across worker counts:\n%s\nvs\n%s", blobs[0], blobs[1])
	}
}

// TestRunRejectsInvalidSpec ensures validation gates execution.
func TestRunRejectsInvalidSpec(t *testing.T) {
	s := fastSpec()
	s.Topology.Family = "mesh"
	if _, err := Run(s, Options{}); err == nil {
		t.Fatal("invalid spec executed")
	}
}

func TestAggregate(t *testing.T) {
	a := aggregate([]float64{1, 2, 3, 4, 5})
	if a.Mean != 3 || a.P50 != 3 {
		t.Fatalf("aggregate = %+v", a)
	}
	if a.P95 < 4.5 || a.P95 > 5 {
		t.Fatalf("p95 = %g", a.P95)
	}
}

// TestRunWithChurn checks the churn replay feeds trial records and
// aggregates, deterministically across worker counts.
func TestRunWithChurn(t *testing.T) {
	spec := fastSpec()
	spec.Loads = []float64{0.5}
	spec.Trials = 2
	spec.Objective.Kind = "sla"
	spec.Churn = &ChurnSpec{
		HorizonS:     120,
		LinkMTBFS:    60,
		LinkMTTRS:    4,
		WeightRateHz: 0.05,
		Convergence:  true,
	}
	var blobs [][]byte
	for _, workers := range []int{1, 2} {
		res, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trials[0]
		if tr.Churn == nil {
			t.Fatal("no churn metrics on trial")
		}
		if tr.Churn.Events == 0 {
			t.Fatal("churn replay saw no events")
		}
		if tr.Churn.PeakUtil <= 0 {
			t.Fatalf("churn metrics = %+v", tr.Churn)
		}
		if res.Trials[0].Seed == res.Trials[1].Seed {
			t.Fatal("trials share a seed")
		}
		ps := res.Points[0]
		if ps.ChurnViolation == nil || ps.ChurnTransient == nil || ps.ChurnDisconnect == nil {
			t.Fatal("churn aggregates missing from point summary")
		}
		if !strings.Contains(res.SummaryTable(), "churn.loss") {
			t.Fatal("summary table lacks churn columns")
		}
		blob, err := res.AggregatesJSON()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("churn aggregates differ across worker counts:\n%s\nvs\n%s", blobs[0], blobs[1])
	}
}

// TestRunInterrupted checks context cancellation: the engine stops starting
// trials, returns the completed prefix with ErrInterrupted, and the partial
// result aggregates cleanly.
func TestRunInterrupted(t *testing.T) {
	spec := fastSpec()
	spec.Trials = 4 // 2 loads x 4 = 8 work items
	ctx, cancel := context.WithCancel(context.Background())
	emitted := 0
	res, err := Run(spec, Options{
		Context: ctx,
		Workers: 1,
		OnTrial: func(tr TrialResult) {
			emitted++
			if emitted == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res == nil || !res.Interrupted {
		t.Fatal("no partial result")
	}
	if len(res.Trials) < 2 || len(res.Trials) >= 8 {
		t.Fatalf("partial trials = %d, want [2,8)", len(res.Trials))
	}
	if len(res.Points) == 0 {
		t.Fatal("partial result has no aggregates")
	}
	// A pre-cancelled context yields an empty partial result, not a hang.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	res, err = Run(spec, Options{Context: ctx2, Workers: 2})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if len(res.Trials) != 0 {
		t.Fatalf("pre-cancelled completed %d trials", len(res.Trials))
	}
}
