package search

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"dualtopo/internal/eval"
	"dualtopo/internal/spf"
)

// StartKind selects how a portfolio trajectory builds its initial weights.
type StartKind int

const (
	// StartWarm uses the weights passed to Portfolio (typically an STR warm
	// start), exactly like a plain DTRFrom call.
	StartWarm StartKind = iota
	// StartUniform starts from unit weights.
	StartUniform
	// StartInvCap starts from inverse-capacity weights (OSPF InvCap): the
	// fattest links get the smallest weights.
	StartInvCap
	// StartGreedy evaluates the uniform setting once, attributes its cost
	// onto arcs, and starts from weights proportional to that attribution —
	// a guided-greedy construction that begins the search already pushing
	// traffic off the costly arcs.
	StartGreedy
)

func (k StartKind) String() string {
	switch k {
	case StartWarm:
		return "warm"
	case StartUniform:
		return "uniform"
	case StartInvCap:
		return "invcap"
	case StartGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("StartKind(%d)", int(k))
	}
}

// Strategy describes one portfolio trajectory: where it starts, how strongly
// its steps are guided, whether bound-pruning is on, and its seed offset.
type Strategy struct {
	// Name labels the trajectory in results, traces, and metrics.
	Name string
	// Start selects the initial weight construction.
	Start StartKind
	// Guide and Prune override the base Params fields for this trajectory.
	Guide float64
	Prune bool
	// SeedDelta is added to the base seed, decorrelating the trajectory's
	// random stream from its siblings.
	SeedDelta uint64
}

// DefaultPortfolio returns s diverse strategies: a faithful warm-started
// paper search first (so the portfolio is never worse than a plain DTRFrom
// at the same seed), then guided/pruned trajectories from warm,
// inverse-capacity, and greedy starts, cycling with fresh seed offsets.
func DefaultPortfolio(s int) []Strategy {
	base := []Strategy{
		{Name: "warm", Start: StartWarm},
		{Name: "warm-guided", Start: StartWarm, Guide: 0.9, Prune: true},
		{Name: "invcap-guided", Start: StartInvCap, Guide: 0.5, Prune: true},
		{Name: "greedy-guided", Start: StartGreedy, Guide: 0.9, Prune: true},
	}
	out := make([]Strategy, 0, s)
	for i := 0; i < s; i++ {
		st := base[i%len(base)]
		if i >= len(base) {
			st.Name = fmt.Sprintf("%s-%d", st.Name, i/len(base))
		}
		st.SeedDelta = uint64(i) * 1_000_000_007
		out = append(out, st)
	}
	return out
}

// PortfolioParams configures a multi-start portfolio run.
type PortfolioParams struct {
	// Base holds the search parameters every trajectory shares; each
	// Strategy overrides Seed (via SeedDelta), Guide, and Prune. Base.OnEvent
	// is ignored — use PortfolioParams.OnEvent, which carries the trajectory
	// index.
	Base Params
	// Strategies lists the trajectories; see DefaultPortfolio.
	Strategies []Strategy
	// Concurrency bounds how many trajectories run at once; 0 means
	// GOMAXPROCS. Results are bitwise-identical at any setting: trajectories
	// are fully independent and the winner is selected deterministically.
	Concurrency int
	// OnEvent, when non-nil, receives every trajectory's trace events with
	// TraceEvent.Trajectory set. Unlike Params.OnEvent it may be called
	// concurrently (from each running trajectory's coordinating goroutine);
	// TraceWriter serializes internally, custom sinks must lock.
	OnEvent func(TraceEvent)
}

// Validate reports the first invalid field.
func (pp PortfolioParams) Validate() error {
	if len(pp.Strategies) == 0 {
		return fmt.Errorf("search: portfolio needs at least one strategy")
	}
	if pp.Concurrency < 0 {
		return fmt.Errorf("search: portfolio concurrency=%d < 0", pp.Concurrency)
	}
	for i, st := range pp.Strategies {
		p := pp.Base
		p.Guide, p.Prune = st.Guide, st.Prune
		if err := p.Validate(); err != nil {
			return fmt.Errorf("search: portfolio strategy %d (%s): %w", i, st.Name, err)
		}
	}
	return nil
}

// TrajectoryResult is one completed portfolio trajectory.
type TrajectoryResult struct {
	// Strategy is the configuration the trajectory ran.
	Strategy Strategy
	// Result is the trajectory's search outcome.
	Result *DTRResult
}

// PortfolioResult is the outcome of a Portfolio run.
type PortfolioResult struct {
	// Best is the winning trajectory's result: minimal lexicographic
	// objective, ties broken by lowest trajectory index — deterministic at
	// any Concurrency.
	Best *DTRResult
	// BestIndex is the winning trajectory's index into Trajectories.
	BestIndex int
	// Trajectories lists every trajectory's outcome, in strategy order.
	Trajectories []TrajectoryResult
}

// Portfolio runs every strategy as an independent seeded DTR trajectory on
// a clone of e, at most Concurrency at a time, and returns the
// deterministically selected winner plus all per-trajectory results. wH0
// and wL0 seed the StartWarm trajectories (and are not modified); e itself
// is never routed on — each trajectory owns a full clone, so concurrent
// trajectories share no mutable router or scratch state.
func Portfolio(e *eval.Evaluator, wH0, wL0 spf.Weights, pp PortfolioParams) (*PortfolioResult, error) {
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	g := e.Graph()
	if err := wH0.Validate(g); err != nil {
		return nil, fmt.Errorf("search: portfolio initial WH: %w", err)
	}
	if err := wL0.Validate(g); err != nil {
		return nil, fmt.Errorf("search: portfolio initial WL: %w", err)
	}
	nStrat := len(pp.Strategies)
	conc := pp.Concurrency
	if conc == 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	if conc > nStrat {
		conc = nStrat
	}

	// Clone up-front from the coordinator goroutine: Clone reads e's plans,
	// which must not be mutated concurrently.
	evs := make([]*eval.Evaluator, nStrat)
	for i := range evs {
		evs[i] = e.Clone()
	}
	// Per-trajectory candidate-evaluation workers: unless the caller pinned
	// Workers, split the machine across the concurrent trajectories (the
	// trajectory count, not GOMAXPROCS, is the outer parallelism here).
	workers := pp.Base.Workers
	if workers == 0 {
		if workers = runtime.GOMAXPROCS(0) / conc; workers < 1 {
			workers = 1
		}
	}

	portfolioMet.bestPhiL.Set(math.Inf(1))

	results := make([]*DTRResult, nStrat)
	errs := make([]error, nStrat)
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	for i, st := range pp.Strategies {
		wg.Add(1)
		go func(i int, st Strategy) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = runTrajectory(evs[i], wH0, wL0, pp, i, st, workers)
		}(i, st)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &PortfolioResult{Trajectories: make([]TrajectoryResult, nStrat)}
	for i, st := range pp.Strategies {
		res.Trajectories[i] = TrajectoryResult{Strategy: st, Result: results[i]}
		portfolioMet.trajectories.With(st.Name).Inc()
	}
	best := 0
	for i := 1; i < nStrat; i++ {
		if results[i].Best.Less(results[best].Best) {
			best = i
		}
	}
	res.Best, res.BestIndex = results[best], best
	return res, nil
}

// runTrajectory executes one strategy on its own evaluator clone.
func runTrajectory(ev *eval.Evaluator, wH0, wL0 spf.Weights, pp PortfolioParams, idx int, st Strategy, workers int) (*DTRResult, error) {
	p := pp.Base
	p.Seed += st.SeedDelta
	p.Guide, p.Prune = st.Guide, st.Prune
	p.Workers = workers
	p.OnEvent = func(te TraceEvent) {
		te.Trajectory = idx
		portfolioMet.bestPhiL.SetMin(te.BestPhiL)
		if pp.OnEvent != nil {
			pp.OnEvent(te)
		}
	}

	wH, wL := wH0, wL0
	switch st.Start {
	case StartWarm:
		// keep the caller's weights
	case StartUniform:
		wH = spf.Uniform(ev.Graph().NumEdges())
		wL = wH
	case StartInvCap:
		wH = invCapWeights(ev.Graph().CSR().Capacity, p.WMax)
		wL = wH
	case StartGreedy:
		n := ev.Graph().NumEdges()
		r, err := ev.EvaluateDTR(spf.Uniform(n), spf.Uniform(n))
		if err != nil {
			return nil, err
		}
		var attr eval.Attribution
		ev.Attribute(r, &attr)
		wH = scoreWeights(attr.HScore, p.WMax)
		wL = scoreWeights(attr.LScore, p.WMax)
	default:
		return nil, fmt.Errorf("search: unknown start kind %v", st.Start)
	}
	res, err := DTRFrom(ev, wH, wL, p)
	if err != nil {
		return nil, fmt.Errorf("search: portfolio trajectory %d (%s): %w", idx, st.Name, err)
	}
	portfolioMet.bestPhiL.SetMin(res.Best.Secondary)
	return res, nil
}
