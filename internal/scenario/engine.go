package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/obs"
	"dualtopo/internal/resilience"
	"dualtopo/internal/search"
)

// ClassMetrics is one scheme's slice of the paper's metrics for one trial.
type ClassMetrics struct {
	PhiH        float64 `json:"phi_h"`
	PhiL        float64 `json:"phi_l"`
	Lambda      float64 `json:"lambda,omitempty"`
	Violations  int     `json:"violations,omitempty"`
	MaxUtil     float64 `json:"max_util"`
	Evaluations int64   `json:"evaluations"`
}

func classMetrics(g *graph.Graph, r *eval.Result, evals int64) ClassMetrics {
	return ClassMetrics{
		PhiH:        r.PhiH,
		PhiL:        r.PhiL,
		Lambda:      r.Lambda,
		Violations:  r.Violations,
		MaxUtil:     r.MaxUtilization(g),
		Evaluations: evals,
	}
}

// TrialResult is one completed trial, the unit of the engine's JSON-lines
// stream. All fields except ElapsedMs are deterministic functions of the
// spec.
type TrialResult struct {
	Campaign     string       `json:"campaign"`
	Point        int          `json:"point"`
	TargetUtil   float64      `json:"target_util"`
	Trial        int          `json:"trial"`
	Seed         uint64       `json:"seed"`
	ElapsedMs    float64      `json:"elapsed_ms"`
	MeasuredUtil float64      `json:"measured_util"`
	RH           float64      `json:"rh"`
	RL           float64      `json:"rl"`
	STR          ClassMetrics `json:"str"`
	DTR          ClassMetrics `json:"dtr"`
	// Failures summarizes the post-optimization failure sweep, when the
	// campaign configured one.
	Failures *resilience.Summary `json:"failures,omitempty"`
	// Robust reports the failure-aware DTR search score, when the campaign
	// enabled robust search.
	Robust *search.RobustScore `json:"robust,omitempty"`
	// Churn summarizes the churn replay of the trial's DTR weights, when
	// the campaign configured one.
	Churn *ChurnMetrics `json:"churn,omitempty"`
}

// Progress reports campaign execution state after each completed trial.
type Progress struct {
	Done, Total int
	Elapsed     time.Duration
}

// ErrInterrupted reports that Run's context was cancelled before the
// campaign finished. Run still returns a partial CampaignResult holding
// every trial that completed, so callers can flush what they have.
var ErrInterrupted = errors.New("scenario: campaign interrupted")

// Options configures campaign execution.
type Options struct {
	// Context, when non-nil, cancels the campaign: no new trials start
	// after it is done (in-flight trials finish), Run aggregates the
	// completed prefix and returns it alongside ErrInterrupted.
	Context context.Context
	// Workers bounds concurrently executed trials; 0 means GOMAXPROCS.
	Workers int
	// RouteWorkers bounds the SPF worker pool used inside each trial's full
	// routing passes (search initialization and refreshes, failure-sweep
	// baselines); 1 keeps them sequential, n > 1 fixes the pool size, and 0
	// (the default) is block-aware auto: when the trial pool itself is the
	// parallelism (more than one concurrent trial) routing stays sequential,
	// otherwise the SPF core picks a pool from the instance size and
	// GOMAXPROCS. Parallel routing is bitwise-identical to sequential, so
	// campaign results never depend on it. Explicit n > 1 is most useful
	// when Workers is small relative to the machine — e.g. a campaign of a
	// few heavy trials on a many-core box.
	RouteWorkers int
	// Guide sets the DTR searches' guided-step probability (Params.Guide)
	// across every trial; 0 keeps the paper's blind rank sampling.
	Guide float64
	// Prune enables the routing-invariance candidate prune (Params.Prune)
	// across every trial. Both knobs leave trajectories deterministic per
	// trial, so aggregates remain functions of the spec plus these options.
	Prune bool
	// OnTrial, when non-nil, receives every completed trial in work-list
	// order (the engine buffers out-of-order completions), so streamed
	// output is reproducible regardless of Workers.
	OnTrial func(TrialResult)
	// OnProgress, when non-nil, receives a progress update after each
	// completion (in completion order).
	OnProgress func(Progress)
}

// CampaignResult is a fully executed campaign.
type CampaignResult struct {
	Spec Spec `json:"spec"`
	// Trials lists every trial in work-list order.
	Trials []TrialResult `json:"trials"`
	// Points aggregates the trials of each load point.
	Points []PointSummary `json:"points"`
	// ElapsedMs is wall-clock execution time.
	ElapsedMs float64 `json:"elapsed_ms"`
	// TrialLatency aggregates per-trial wall-clock durations (ms) across the
	// whole campaign. Timing, so — like ElapsedMs — it is excluded from the
	// deterministic aggregates payload (AggregatesJSON).
	TrialLatency Aggregate `json:"trial_latency_ms"`
	// Interrupted marks a partial result: the campaign's context was
	// cancelled and Trials holds only the completed subset.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Run executes the campaign: it normalizes and validates the spec, expands
// it into the deterministic work-list, runs trials on a bounded worker pool,
// and aggregates per-point summaries. The aggregates depend only on the spec
// (never on Workers or scheduling).
func Run(spec Spec, opts Options) (*CampaignResult, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	budget, err := spec.ResolveBudget()
	if err != nil {
		return nil, err
	}
	if opts.Guide > 0 {
		budget.DTR.Guide = opts.Guide
	}
	if opts.Prune {
		budget.DTR.Prune = true
	}
	items := spec.WorkList()
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	// Thread the full-route worker setting into every trial's searches;
	// results stay bitwise-identical, only trial setup gets faster. Auto (0)
	// resolves to sequential whenever more than one trial runs at a time —
	// there the trial pool is the parallelism and per-trial SPF pools would
	// oversubscribe the machine.
	routeWorkers := opts.RouteWorkers
	if routeWorkers == 0 && workers > 1 {
		routeWorkers = 1
	}
	budget.DTR.RouteWorkers = routeWorkers
	budget.STR.RouteWorkers = routeWorkers

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	start := time.Now()
	results := make([]TrialResult, len(items))
	errs := make([]error, len(items))
	idxCh := make(chan int)
	doneCh := make(chan int)
	go func() {
		for i := range items {
			idxCh <- i
		}
		close(idxCh)
	}()
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idxCh {
				// After cancellation, drain the remaining work-list without
				// running it; in-flight trials complete normally, so every
				// index still flows through doneCh exactly once.
				if err := ctx.Err(); err != nil {
					errs[i] = err
				} else {
					results[i], errs[i] = runTrial(spec, items[i], budget, routeWorkers)
				}
				doneCh <- i
			}
		}()
	}

	// Collect completions, emitting OnTrial strictly in work-list order.
	completed := make([]bool, len(items))
	emitted := 0
	for done := 0; done < len(items); done++ {
		i := <-doneCh
		completed[i] = true
		for emitted < len(items) && completed[emitted] {
			if errs[emitted] == nil && opts.OnTrial != nil {
				opts.OnTrial(results[emitted])
			}
			emitted++
		}
		if elapsed := time.Since(start).Seconds(); elapsed > 0 {
			met.rate.Set(float64(done+1) / elapsed)
		}
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Done: done + 1, Total: len(items), Elapsed: time.Since(start)})
		}
	}
	if ctx.Err() != nil {
		// Partial flush: aggregate only the trials that completed before the
		// cancellation and hand them back with ErrInterrupted.
		done := make([]TrialResult, 0, len(items))
		for i := range items {
			if errs[i] == nil {
				done = append(done, results[i])
			}
		}
		res := &CampaignResult{
			Spec:        spec,
			Trials:      done,
			Points:      summarizePoints(spec, done),
			ElapsedMs:   float64(time.Since(start)) / float64(time.Millisecond),
			Interrupted: true,
		}
		latencies := make([]float64, len(done))
		for i, tr := range done {
			latencies[i] = tr.ElapsedMs
		}
		res.TrialLatency = aggregate(latencies)
		return res, ErrInterrupted
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario: %s point %d trial %d: %w",
				spec.Name, items[i].Point, items[i].Trial, err)
		}
	}

	aggSpan := obs.Time(met.phaseAgg)
	points := summarizePoints(spec, results)
	aggSpan.Stop()
	latencies := make([]float64, len(results))
	for i, tr := range results {
		latencies[i] = tr.ElapsedMs
	}
	return &CampaignResult{
		Spec:         spec,
		Trials:       results,
		Points:       points,
		ElapsedMs:    float64(time.Since(start)) / float64(time.Millisecond),
		TrialLatency: aggregate(latencies),
	}, nil
}

// runTrial optimizes one work item and condenses it into a TrialResult.
// routeWorkers sizes the SPF pool of the trial's full evaluations.
func runTrial(spec Spec, it WorkItem, b search.Budget, routeWorkers int) (TrialResult, error) {
	met.busy.Add(1)
	defer met.busy.Add(-1)
	start := time.Now()
	pt, err := RunPoint(it.Spec, b)
	if err != nil {
		return TrialResult{}, err
	}
	tr := TrialResult{
		Campaign:     spec.Name,
		Point:        it.Point,
		TargetUtil:   it.Spec.TargetUtil,
		Trial:        it.Trial,
		Seed:         it.Spec.Seed,
		MeasuredUtil: pt.MeasuredUtil,
		RH:           pt.RH,
		RL:           pt.RL,
		STR:          classMetrics(pt.Inst.G, pt.STR.Result, pt.STR.Evaluations),
		DTR:          classMetrics(pt.Inst.G, pt.DTR.Result, pt.DTR.Evaluations),
	}
	tr.Robust = pt.DTR.Robust
	if spec.Failures.Enabled() {
		sweepSpan := obs.Time(met.phaseSweep)
		model := spec.Failures.Model(it.Spec.Seed)
		states, err := resilience.Enumerate(pt.Inst.G, model)
		if err != nil {
			return TrialResult{}, err
		}
		e, err := pt.Inst.Evaluator()
		if err != nil {
			return TrialResult{}, err
		}
		fs, err := resilience.CompareSchemes(resilience.NewSweeper(e, resilience.Options{}), pt.STR.W, pt.DTR.WH, pt.DTR.WL, states)
		if err != nil {
			return TrialResult{}, err
		}
		tr.Failures = fs.Summary(model.String())
		sweepSpan.Stop()
	}
	if spec.Churn != nil {
		cm, err := runChurn(spec.Churn, pt, it.Spec.Seed, routeWorkers)
		if err != nil {
			return TrialResult{}, err
		}
		tr.Churn = cm
	}
	elapsed := time.Since(start)
	met.trialSec.Observe(elapsed.Seconds())
	met.trials.Inc()
	tr.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
	return tr, nil
}
