// Benchmarks regenerating the paper's tables and figures (one bench per
// artifact) plus ablations over the heuristic's design choices and
// micro-benchmarks of the evaluation inner loop.
//
// Figure benches run the full experiment pipeline at the Tiny preset —
// real topologies and workloads with reduced search budgets — and report
// the headline metric (peak RL, etc.) via b.ReportMetric. Regenerate
// publication-scale results with: go run ./cmd/dtrexp -run all -preset small
package dualtopo_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"time"

	"dualtopo"
	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
)

// benchExperiment runs one registered experiment per iteration and reports
// the peak L-cost ratio (or first table row count) as a metric.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	preset := dualtopo.TinyPreset()
	var peak float64
	for i := 0; i < b.N; i++ {
		rep, err := dualtopo.RunExperiment(id, preset)
		if err != nil {
			b.Fatal(err)
		}
		peak = peakRL(rep)
	}
	if peak > 0 {
		b.ReportMetric(peak, "peakRL")
	}
}

// peakRL extracts the headline reproduction metric from an experiment
// report: the peak y-value across the L-cost-ratio-bearing series (the
// per-figure ratio series named "L-cost ratio", "k…"/"f…" sweeps, and the
// sink placements "Uniform"/"Local").
func peakRL(rep *dualtopo.ExperimentReport) float64 {
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

// Fig. 2: cost ratios across topologies and cost functions.
func BenchmarkFig2RandomLoad(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFig2PowerLoad(b *testing.B)  { benchExperiment(b, "fig2b") }
func BenchmarkFig2ISPLoad(b *testing.B)    { benchExperiment(b, "fig2c") }
func BenchmarkFig2RandomSLA(b *testing.B)  { benchExperiment(b, "fig2d") }
func BenchmarkFig2PowerSLA(b *testing.B)   { benchExperiment(b, "fig2e") }
func BenchmarkFig2ISPSLA(b *testing.B)     { benchExperiment(b, "fig2f") }

// Fig. 1 / §3.3.1 joint-cost example.
func BenchmarkFig1Triangle(b *testing.B) { benchExperiment(b, "fig1") }

// Fig. 3: link-utilization histograms.
func BenchmarkFig3Histograms(b *testing.B) {
	for _, id := range []string{"fig3a", "fig3b", "fig3c"} {
		b.Run(id, func(b *testing.B) { benchExperiment(b, id) })
	}
}

// Fig. 4: high-priority volume fraction.
func BenchmarkFig4TrafficFraction(b *testing.B) { benchExperiment(b, "fig4") }

// Fig. 5: SD-pair density under both cost functions.
func BenchmarkFig5Density(b *testing.B) {
	for _, id := range []string{"fig5a", "fig5b"} {
		b.Run(id, func(b *testing.B) { benchExperiment(b, id) })
	}
}

// Fig. 6: sorted H-utilization under STR.
func BenchmarkFig6HUtilization(b *testing.B) { benchExperiment(b, "fig6") }

// Fig. 7: load vs propagation delay.
func BenchmarkFig7DelayLoad(b *testing.B) { benchExperiment(b, "fig7") }

// Fig. 8: sink traffic patterns.
func BenchmarkFig8SinkPattern(b *testing.B) {
	for _, id := range []string{"fig8a", "fig8b"} {
		b.Run(id, func(b *testing.B) { benchExperiment(b, id) })
	}
}

// Fig. 9: SLA-bound relaxation.
func BenchmarkFig9SLARelaxation(b *testing.B) { benchExperiment(b, "fig9") }

// Table 1: ε-relaxed STR vs DTR.
func BenchmarkTable1Relaxation(b *testing.B) { benchExperiment(b, "table1") }

// Extension: single-link-failure robustness.
func BenchmarkExtFailureRobustness(b *testing.B) { benchExperiment(b, "extfail") }

// BenchmarkScenarioEngine measures campaign throughput (trials/sec) of the
// bundled tiny campaign at 1, 4 and GOMAXPROCS engine workers, tracking how
// the worker pool scales what-if execution.
func BenchmarkScenarioEngine(b *testing.B) {
	spec, ok := dualtopo.ScenarioPreset("tiny")
	if !ok {
		b.Fatal("tiny preset missing")
	}
	workerCounts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		// Keep the work-list at least as wide as the pool, or the engine
		// clamps the worker count and the sub-benchmarks collapse into one
		// configuration.
		spec.Trials = (workers + len(spec.Loads) - 1) / len(spec.Loads)
		if spec.Trials < 2 {
			spec.Trials = 2
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			trials := 0
			for i := 0; i < b.N; i++ {
				res, err := dualtopo.RunScenario(spec, dualtopo.ScenarioOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				trials += len(res.Trials)
			}
			b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/sec")
		})
	}
}

// benchInstance builds the standard 30-node evaluator the search and
// objective benchmarks run on.
func benchInstance(b *testing.B, kind dualtopo.ObjectiveKind) *dualtopo.Evaluator {
	b.Helper()
	rng := rand.New(rand.NewPCG(7, 7))
	g, err := dualtopo.RandomTopology(30, 75, dualtopo.DefaultCapacity, rng)
	if err != nil {
		b.Fatal(err)
	}
	dualtopo.AssignUniformDelays(g, 1.2, 15, rng)
	tl := dualtopo.GravityMatrix(30, rng)
	th, err := dualtopo.RandomHighPriorityMatrix(30, 0.1, 0.3, tl.Total(), rng)
	if err != nil {
		b.Fatal(err)
	}
	opts := dualtopo.DefaultOptions()
	opts.Kind = kind
	ev, err := eval.New(g, th, tl, opts)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// Ablation: heavy-tail rank-selection exponent τ of Algorithm 2. τ=0 picks
// links uniformly; τ→∞ always attacks the extreme-cost links; the paper
// argues τ=1.5 balances the two.
func BenchmarkAblationTau(b *testing.B) {
	for _, tau := range []float64{0, 1.5, 5} {
		b.Run(tauName(tau), func(b *testing.B) {
			ev := benchInstance(b, dualtopo.LoadBased)
			var phiL float64
			for i := 0; i < b.N; i++ {
				p := dualtopo.DTRDefaults()
				p.N, p.K, p.M, p.Workers = 300, 200, 80, 1
				p.Tau = tau
				res, err := dualtopo.OptimizeDTR(ev, p)
				if err != nil {
					b.Fatal(err)
				}
				phiL = res.Result.PhiL
			}
			b.ReportMetric(phiL, "PhiL")
		})
	}
}

func tauName(tau float64) string {
	switch tau {
	case 0:
		return "tau=0(uniform)"
	case 1.5:
		return "tau=1.5(paper)"
	default:
		return "tau=5(greedy)"
	}
}

// Ablation: neighborhood size m of Algorithm 2 (paper: m=5).
func BenchmarkAblationNeighbors(b *testing.B) {
	for _, m := range []int{1, 5, 10} {
		b.Run(mName(m), func(b *testing.B) {
			ev := benchInstance(b, dualtopo.LoadBased)
			var phiL float64
			for i := 0; i < b.N; i++ {
				p := dualtopo.DTRDefaults()
				p.N, p.K, p.M, p.Workers = 300, 200, 80, 1
				p.Neighbors = m
				res, err := dualtopo.OptimizeDTR(ev, p)
				if err != nil {
					b.Fatal(err)
				}
				phiL = res.Result.PhiL
			}
			b.ReportMetric(phiL, "PhiL")
		})
	}
}

func mName(m int) string {
	switch m {
	case 1:
		return "m=1"
	case 5:
		return "m=5(paper)"
	default:
		return "m=10"
	}
}

// Ablation: Algorithm 1's third routine (joint refinement). K=0 disables it.
func BenchmarkAblationRefinement(b *testing.B) {
	for _, k := range []int{0, 400} {
		name := "with-refinement"
		if k == 0 {
			name = "no-refinement"
		}
		b.Run(name, func(b *testing.B) {
			ev := benchInstance(b, dualtopo.LoadBased)
			var phiL float64
			for i := 0; i < b.N; i++ {
				p := dualtopo.DTRDefaults()
				p.N, p.K, p.M, p.Workers = 300, k, 80, 1
				res, err := dualtopo.OptimizeDTR(ev, p)
				if err != nil {
					b.Fatal(err)
				}
				phiL = res.Result.PhiL
			}
			b.ReportMetric(phiL, "PhiL")
		})
	}
}

// Ablation: Eq. (3)'s ΦH,l/Cl approximation vs the exact M/M/1 delay term.
func BenchmarkAblationDelayModel(b *testing.B) {
	for _, exact := range []bool{false, true} {
		name := "phi-approx(paper)"
		if exact {
			name = "exact-mm1"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(7, 7))
			g, _ := dualtopo.RandomTopology(30, 75, dualtopo.DefaultCapacity, rng)
			dualtopo.AssignUniformDelays(g, 1.2, 15, rng)
			tl := dualtopo.GravityMatrix(30, rng)
			th, _ := dualtopo.RandomHighPriorityMatrix(30, 0.1, 0.3, tl.Total(), rng)
			opts := dualtopo.Options{Kind: dualtopo.SLABased, SLA: dualtopo.DefaultSLA(), ExactDelay: exact}
			h, err := dualtopo.NewTopologyHandle(name, g, th, tl, opts, dualtopo.SessionPool{Size: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			sess, err := h.Session(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			defer h.Release(sess)   //nolint:errcheck // bench teardown
			sess.SetRouteWorkers(0) // sole lease: restore parallel routing
			ev := sess.Evaluator()
			var lambda float64
			for i := 0; i < b.N; i++ {
				p := dualtopo.DTRDefaults()
				p.N, p.K, p.M, p.Workers = 200, 100, 60, 1
				res, err := dualtopo.OptimizeDTR(ev, p)
				if err != nil {
					b.Fatal(err)
				}
				lambda = res.Result.Lambda
			}
			b.ReportMetric(lambda, "Lambda")
		})
	}
}

// Micro-benchmarks of the evaluation inner loop.

func BenchmarkEvaluateSTR(b *testing.B) {
	ev := benchInstance(b, dualtopo.LoadBased)
	w := dualtopo.UniformWeights(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateSTR(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateDTR carries a route-worker dimension: on 30 nodes the
// parallel series measures the fork/join overhead, not a speed-up.
func BenchmarkEvaluateDTR(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ev := benchInstance(b, dualtopo.LoadBased)
			ev.SetRouteWorkers(workers)
			w := dualtopo.UniformWeights(150)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.EvaluateDTR(w, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkObjectiveSTRFastPath(b *testing.B) {
	ev := benchInstance(b, dualtopo.LoadBased)
	w := dualtopo.UniformWeights(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.ObjectiveSTR(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObjectiveSTRSLA(b *testing.B) {
	ev := benchInstance(b, dualtopo.SLABased)
	w := dualtopo.UniformWeights(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.ObjectiveSTR(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPFTree pins the cost and allocation count of one CSR-based
// single-destination shortest-path computation (steady state: zero allocs),
// comparing the monotone bucket queue (new default) against the indexed
// 4-ary heap fallback (the old-style comparison-based core).
func BenchmarkSPFTree(b *testing.B) {
	for _, mode := range []string{"bucket", "heap"} {
		b.Run(mode, func(b *testing.B) {
			// The standard 100-node, 250-link instance with paper-range
			// [1, 30] weights.
			rng := rand.New(rand.NewPCG(3, 3))
			g, err := dualtopo.RandomTopology(100, 250, dualtopo.DefaultCapacity, rng)
			if err != nil {
				b.Fatal(err)
			}
			w := dualtopo.UniformWeights(g.NumEdges())
			for i := range w {
				w[i] = 1 + rng.IntN(30)
			}
			comp := dualtopo.NewSPFComputer(g)
			comp.SetForceHeap(mode == "heap")
			var tr dualtopo.SPFTree
			comp.Tree(0, w, &tr) // warm the tree's buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				comp.Tree(0, w, &tr)
			}
		})
	}
}

// BenchmarkDeltaVsFullRoute compares a full re-route of every destination
// against the incremental DeltaRouter for single-arc weight changes on the
// largest bundled topology — the paper's standard 30-node, 150-arc random
// instance with a gravity matrix activating every destination. The speedup
// sub-benchmark reports the full/delta ratio directly.
func BenchmarkDeltaVsFullRoute(b *testing.B) {
	build := func(b *testing.B) (*dualtopo.Graph, *dualtopo.TrafficMatrix, dualtopo.Weights) {
		b.Helper()
		rng := rand.New(rand.NewPCG(21, 21))
		g, err := dualtopo.RandomTopology(30, 75, dualtopo.DefaultCapacity, rng)
		if err != nil {
			b.Fatal(err)
		}
		dualtopo.AssignUniformDelays(g, 1.2, 15, rng)
		tm := dualtopo.GravityMatrix(g.NumNodes(), rng)
		w := dualtopo.UniformWeights(g.NumEdges())
		for i := range w {
			w[i] = 1 + rng.IntN(20)
		}
		return g, tm, w
	}
	// Each iteration moves one arc's weight by ±1 — the FindH/FindL step
	// size — cycling through the arcs, and re-evaluates all per-arc loads.
	// step returns the changed arc.
	step := func(w, base dualtopo.Weights, i, m int) int {
		arc := i % m
		if w[arc] == base[arc] {
			w[arc] = base[arc] + 1
		} else {
			w[arc] = base[arc]
		}
		return arc
	}
	// The full side carries a worker-count dimension: workers=1 is the
	// sequential baseline, higher counts shard destinations across the SPF
	// worker pool (bitwise-identical loads, wall-clock scaling with cores).
	fullWorkers := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		fullWorkers = append(fullWorkers, n)
	}
	for _, workers := range fullWorkers {
		name := "full"
		if workers > 1 {
			name = fmt.Sprintf("full-workers=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			g, tm, w := build(b)
			base := w.Clone()
			plan := dualtopo.NewRoutingPlan(g, tm)
			plan.SetWorkers(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(w, base, i, g.NumEdges())
				if err := plan.Route(w, tm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("delta", func(b *testing.B) {
		g, tm, w := build(b)
		base := w.Clone()
		// The raw single-matrix router, below the session layer: this bench
		// isolates Apply itself, without a handle's paired-matrix state.
		dr := spf.NewDeltaRouter(g, tm)
		if err := dr.Route(w); err != nil {
			b.Fatal(err)
		}
		changed := make([]dualtopo.EdgeID, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			changed[0] = dualtopo.EdgeID(step(w, base, i, g.NumEdges()))
			if _, err := dr.Apply(w, changed); err != nil {
				b.Fatal(err)
			}
		}
	})
	// speedup interleaves both engines over the identical change sequence
	// and reports the wall-clock ratio as a metric.
	b.Run("speedup", func(b *testing.B) {
		g, tm, w := build(b)
		base := w.Clone()
		plan := dualtopo.NewRoutingPlan(g, tm)
		dr := spf.NewDeltaRouter(g, tm)
		if err := dr.Route(w); err != nil {
			b.Fatal(err)
		}
		changed := make([]dualtopo.EdgeID, 1)
		var tFull, tDelta time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			changed[0] = dualtopo.EdgeID(step(w, base, i, g.NumEdges()))
			t0 := time.Now()
			if err := plan.Route(w, tm); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			if _, err := dr.Apply(w, changed); err != nil {
				b.Fatal(err)
			}
			tFull += t1.Sub(t0)
			tDelta += time.Since(t1)
		}
		b.ReportMetric(float64(tFull)/float64(tDelta), "full/delta-x")
	})
}

// BenchmarkDTRSearch pins the Algorithm 1 search cost, every candidate
// scored as a what-if on a routing state, allocation counts included.
func BenchmarkDTRSearch(b *testing.B) {
	b.Run("delta", func(b *testing.B) {
		ev := benchInstance(b, dualtopo.LoadBased)
		p := dualtopo.DTRDefaults()
		p.N, p.K, p.M, p.Workers = 300, 200, 80, 1
		var phiL float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := dualtopo.OptimizeDTR(ev, p)
			if err != nil {
				b.Fatal(err)
			}
			phiL = res.Result.PhiL
		}
		b.ReportMetric(phiL, "PhiL")
	})
}

// BenchmarkDTRSearchGuided pins the guided-search speedup on the 500-node
// hierarchical ISP instance (20 PoPs × 25 routers, ~1000 bidirectional
// links, gravity low-priority demand plus random high-priority pairs at the
// paper's 60% average utilization): the "plain" series is
// the PR 6 search at the budget it needs on this instance (N=150, K=100,
// M=40); the "guided" series runs attribution-guided steps with the
// routing-invariance prune at roughly a third of that budget (N=40, K=30,
// M=12) and must land on an equal-or-better ΦL with ≥3× fewer delta
// evaluations and ≥3× less wall-clock. The hier family's dual-plane symmetry
// makes the uniform start already optimal here, so both series converge to
// the same ΦL — the series pins evaluation cost and that guidance loses no
// quality at a third of the budget; quality-improvement behaviour is pinned
// by the search package tests on asymmetric instances.
func BenchmarkDTRSearchGuided(b *testing.B) {
	spec := instance.Spec{
		Topology:   "hier",
		Kind:       dualtopo.LoadBased,
		TargetUtil: 0.6,
		Seed:       17,
		TopoParams: &topo.Params{Pops: 20, RoutersPerPop: 25},
	}
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	ev, err := inst.Evaluator()
	if err != nil {
		b.Fatal(err)
	}
	n := ev.Graph().NumEdges()
	for _, tc := range []struct {
		name    string
		n, k, m int
		guide   float64
		prune   bool
	}{
		{"plain", 150, 100, 40, 0, false},
		{"guided", 40, 30, 12, 0.9, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := dualtopo.DTRDefaults()
			p.N, p.K, p.M, p.Workers = tc.n, tc.k, tc.m, 1
			p.Seed = 11
			p.Guide = tc.guide
			p.Prune = tc.prune
			var phiL float64
			var deltas, pruned int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dualtopo.OptimizeDTRFrom(ev,
					dualtopo.UniformWeights(n), dualtopo.UniformWeights(n), p)
				if err != nil {
					b.Fatal(err)
				}
				phiL = res.Result.PhiL
				deltas = res.DeltaEvals
				pruned = res.Pruned
			}
			b.ReportMetric(phiL, "PhiL")
			b.ReportMetric(float64(deltas), "delta-evals")
			b.ReportMetric(float64(pruned), "pruned")
		})
	}
}

func BenchmarkRouteLoads(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	g, err := dualtopo.RandomTopology(30, 75, dualtopo.DefaultCapacity, rng)
	if err != nil {
		b.Fatal(err)
	}
	tm := dualtopo.GravityMatrix(30, rng)
	plan := dualtopo.NewRoutingPlan(g, tm)
	w := dualtopo.UniformWeights(g.NumEdges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Route(w, tm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOSPFConvergence(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	g, err := dualtopo.RandomTopology(30, 75, dualtopo.DefaultCapacity, rng)
	if err != nil {
		b.Fatal(err)
	}
	w := dualtopo.UniformWeights(g.NumEdges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dualtopo.BuildOSPFNetwork(g, w, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueueSimulation(b *testing.B) {
	cfg := dualtopo.QueueConfig{
		ArrivalH: 0.25, ArrivalL: 0.35, ServiceRate: 1,
		Discipline: dualtopo.PreemptiveResume, Packets: 50000, Warmup: 1000, Seed: 5,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := dualtopo.SimulateQueue(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
