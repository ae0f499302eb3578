package scenario

import (
	"fmt"
	"math"
	"sync"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/obs"
	"dualtopo/internal/resilience"
	"dualtopo/internal/search"
)

// Point is the outcome of optimizing one instance with both schemes.
type Point struct {
	Spec instance.Spec
	// Inst is the built problem instance the searches ran on; kept so
	// downstream analyses (histograms, failure sweeps) need not rebuild it.
	Inst *instance.Instance
	// Eval is the evaluator both searches ran on, over Inst, its routing
	// states dropped on the searches' return. Failure sweeps and churn
	// replays of the point drive it rather than build another evaluator;
	// the Results below are copies and do not alias its plans.
	Eval *eval.Evaluator
	// MeasuredUtil is the average link utilization of the final STR
	// solution, the paper's network-load reference (footnote 4).
	MeasuredUtil float64
	STR          *search.STRResult
	DTR          *search.DTRResult
	// RH and RL are the paper's cost ratios: class cost under STR divided
	// by class cost under DTR (Fig. 2).
	RH, RL float64
}

// RunPoint builds the instance and runs both searches. DTR warm-starts from
// the STR solution: DTR evaluates {W, W} identically to STR's W, so the DTR
// search can only improve on the baseline lexicographically. This removes
// search-budget artifacts from the STR/DTR comparison (the paper's premise
// is that DTR strictly generalizes STR).
func RunPoint(spec instance.Spec, b search.Budget) (*Point, error) {
	buildSpan := obs.Time(met.phaseBuild)
	inst, err := spec.Build()
	if err != nil {
		return nil, err
	}
	e, err := inst.Evaluator()
	buildSpan.Stop()
	if err != nil {
		return nil, err
	}
	strParams := b.STR
	strParams.Seed = spec.Seed*2 + 1
	strSpan := obs.Time(met.phaseSTR)
	strRes, err := search.STR(e, strParams)
	strSpan.Stop()
	if err != nil {
		return nil, err
	}
	dtrParams := b.DTR
	dtrParams.Seed = spec.Seed*2 + 2
	if spec.Robust != nil {
		states, err := resilience.Enumerate(inst.G, *spec.Robust)
		if err != nil {
			return nil, err
		}
		dtrParams.Robust = search.RobustParams{States: states, Alpha: robustAlpha, Beta: robustBeta}
	}
	dtrSpan := obs.Time(met.phaseDTR)
	dtrRes, err := search.DTRFrom(e, strRes.W, strRes.W, dtrParams)
	dtrSpan.Stop()
	if err != nil {
		return nil, err
	}
	pt := &Point{
		Spec:         spec,
		Inst:         inst,
		Eval:         e,
		MeasuredUtil: strRes.Result.AvgUtilization(inst.G),
		STR:          strRes,
		DTR:          dtrRes,
	}
	pt.RH = costRatio(primaryCost(spec.Kind, strRes.Result), primaryCost(spec.Kind, dtrRes.Result))
	pt.RL = costRatio(strRes.Result.PhiL, dtrRes.Result.PhiL)
	return pt, nil
}

// RunPoints executes one point per spec on a pool of exactly `workers`
// goroutines, preserving spec order in the result.
func RunPoints(specs []instance.Spec, b search.Budget, workers int) ([]*Point, error) {
	points := make([]*Point, len(specs))
	errs := make([]error, len(specs))
	if workers < 1 {
		workers = 1
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	idxCh := make(chan int)
	go func() {
		for i := range specs {
			idxCh <- i
		}
		close(idxCh)
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				points[i], errs[i] = RunPoint(specs[i], b)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario: point %d (%+v): %w", i, specs[i], err)
		}
	}
	return points, nil
}

// primaryCost extracts the class-H cost the paper ratios: ΦH for load-based
// runs, Λ for SLA-based runs.
func primaryCost(kind eval.Kind, r *eval.Result) float64 {
	if kind == eval.SLABased {
		return r.Lambda
	}
	return r.PhiH
}

// costRatio computes str/dtr, defining 0/0 as 1 (both schemes met the
// objective perfectly, e.g. zero SLA penalty on both sides).
func costRatio(str, dtr float64) float64 {
	const tiny = 1e-12
	if dtr <= tiny && str <= tiny {
		return 1
	}
	if dtr <= tiny {
		return math.Inf(1)
	}
	return str / dtr
}
