// Package benchkit holds the canonical benchmark instances and metric
// extraction of the root benchmark suite (bench_test.go).
package benchkit

import (
	"math/rand/v2"
	"strings"

	"dualtopo"
	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/topo"
)

// PeakRL extracts the headline reproduction metric from an experiment
// report: the peak y-value across the L-cost-ratio-bearing series (the
// per-figure ratio series named "L-cost ratio", "k…"/"f…" sweeps, and the
// sink placements "Uniform"/"Local").
func PeakRL(rep *dualtopo.ExperimentReport) float64 {
	peak := 0.0
	for _, s := range rep.Series {
		// HasPrefix, not a [:1] slice: an empty series name must not panic
		// the whole benchmark run.
		if s.Name == "L-cost ratio" || strings.HasPrefix(s.Name, "k") ||
			strings.HasPrefix(s.Name, "f") ||
			s.Name == "Uniform" || s.Name == "Local" {
			for _, y := range s.Y {
				if y > peak {
					peak = y
				}
			}
		}
	}
	return peak
}

// SPFInstance builds the standard 100-node, 250-link single-destination SPF
// micro-benchmark instance with paper-range [1, 30] weights.
func SPFInstance() (*dualtopo.Graph, dualtopo.Weights, error) {
	rng := rand.New(rand.NewPCG(3, 3))
	g, err := dualtopo.RandomTopology(100, 250, dualtopo.DefaultCapacity, rng)
	if err != nil {
		return nil, nil, err
	}
	w := dualtopo.UniformWeights(g.NumEdges())
	for i := range w {
		w[i] = 1 + rng.IntN(30)
	}
	return g, w, nil
}

// RouteInstance builds the paper's standard 30-node, 150-arc random
// instance with a gravity matrix activating every destination — the
// full-route and delta-route benchmark workload.
func RouteInstance() (*dualtopo.Graph, *dualtopo.TrafficMatrix, dualtopo.Weights, error) {
	rng := rand.New(rand.NewPCG(21, 21))
	g, err := dualtopo.RandomTopology(30, 75, dualtopo.DefaultCapacity, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	dualtopo.AssignUniformDelays(g, 1.2, 15, rng)
	tm := dualtopo.GravityMatrix(g.NumNodes(), rng)
	w := dualtopo.UniformWeights(g.NumEdges())
	for i := range w {
		w[i] = 1 + rng.IntN(20)
	}
	return g, tm, w, nil
}

// Step applies the canonical single-arc walk the delta benchmarks use: move
// one arc's weight by ±1 (the FindH/FindL step size), cycling through the
// arcs. It returns the changed arc.
func Step(w, base dualtopo.Weights, i, m int) int {
	arc := i % m
	if w[arc] == base[arc] {
		w[arc] = base[arc] + 1
	} else {
		w[arc] = base[arc]
	}
	return arc
}

// SearchInstance builds the 500-node weight-search benchmark instance: a
// hierarchical ISP (20 PoPs x 25 routers, ~1000 bidirectional links) with
// gravity low-priority demand plus random high-priority pairs, scaled to the
// paper's 60% average utilization. This is the workload the guided-search
// acceptance numbers (BenchmarkDTRSearchGuided) are measured on.
func SearchInstance(kind dualtopo.ObjectiveKind) (*dualtopo.Evaluator, error) {
	spec := instance.Spec{
		Topology:   "hier",
		Kind:       kind,
		TargetUtil: 0.6,
		Seed:       17,
		TopoParams: &topo.Params{Pops: 20, RoutersPerPop: 25},
	}
	inst, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return inst.Evaluator()
}

// EvalInstance builds the standard 30-node evaluator the search and
// objective benchmarks run on.
func EvalInstance(kind dualtopo.ObjectiveKind) (*dualtopo.Evaluator, error) {
	rng := rand.New(rand.NewPCG(7, 7))
	g, err := dualtopo.RandomTopology(30, 75, dualtopo.DefaultCapacity, rng)
	if err != nil {
		return nil, err
	}
	dualtopo.AssignUniformDelays(g, 1.2, 15, rng)
	tl := dualtopo.GravityMatrix(30, rng)
	th, err := dualtopo.RandomHighPriorityMatrix(30, 0.1, 0.3, tl.Total(), rng)
	if err != nil {
		return nil, err
	}
	opts := dualtopo.DefaultOptions()
	opts.Kind = kind
	return eval.New(g, th, tl, opts)
}
