package experiments

import (
	"dualtopo/internal/instance"
	"dualtopo/internal/scenario"
	"dualtopo/internal/search"
)

// The sweep machinery runs on the scenario engine: experiments contribute
// curated instance.Specs and figure-shaping, the engine contributes dual
// optimization and the worker pool.

// Point is the outcome of optimizing one instance with both schemes.
type Point = scenario.Point

// budget extracts the preset's search budgets.
func (p Preset) budget() search.Budget {
	return search.Budget{DTR: p.DTR, STR: p.STR}
}

// runPoint builds the instance and runs both searches through the scenario
// engine (DTR warm-started from the STR solution).
func runPoint(spec instance.Spec, p Preset) (*Point, error) {
	return scenario.RunPoint(spec, p.budget())
}

// runSweep executes one point per spec, Preset.Parallel at a time,
// preserving spec order in the result.
func runSweep(specs []instance.Spec, p Preset) ([]*Point, error) {
	return scenario.RunPoints(specs, p.budget(), p.Parallel)
}

// loadSweepSpecs builds one spec per target utilization.
func loadSweepSpecs(base instance.Spec, targets []float64, seedBase uint64) []instance.Spec {
	specs := make([]instance.Spec, len(targets))
	for i, target := range targets {
		s := base
		s.TargetUtil = target
		// One topology/matrix family per sweep: same base seed, so only the
		// scaling changes across points (as in the paper, which scales one
		// matrix). The seed feeds search seeds via scenario.RunPoint.
		s.Seed = seedBase
		specs[i] = s
	}
	return specs
}

// ratioSeries converts a sweep to the paper's (utilization, ratio) series,
// using the measured STR utilization as x.
func ratioSeries(points []*Point, pick func(*Point) float64) (xs, ys []float64) {
	xs = make([]float64, len(points))
	ys = make([]float64, len(points))
	for i, pt := range points {
		xs[i] = pt.MeasuredUtil
		ys[i] = pick(pt)
	}
	return xs, ys
}

// targetRatioSeries uses the target utilization as x so that several sweeps
// (different f, k or traffic patterns) share one x grid in a report table.
func targetRatioSeries(points []*Point, pick func(*Point) float64) (xs, ys []float64) {
	xs = make([]float64, len(points))
	ys = make([]float64, len(points))
	for i, pt := range points {
		xs[i] = pt.Spec.TargetUtil
		ys[i] = pick(pt)
	}
	return xs, ys
}
