package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"dualtopo/internal/cost"
	"dualtopo/internal/engine"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/scenario"
	"dualtopo/internal/search"
	"dualtopo/internal/spf"
)

// searchBudgets is the pipeline every search-hier op belongs to: the STR
// baseline, then the paper's DTR heuristic warm-started from it, at budgets
// that finish in a few seconds on the 200-node instance. Workers are pinned
// to one, so a trajectory is a function of the seed alone.
func searchBudgets() (search.STRParams, search.Params) {
	b := scenario.TinyBudget()
	b.STR.Iterations, b.STR.Candidates, b.STR.M = 60, 4, 60
	b.DTR.N, b.DTR.K, b.DTR.M, b.DTR.Neighbors = 120, 80, 20, 4
	b.STR.Workers, b.DTR.Workers = searchWorkers, searchWorkers
	b.STR.RouteWorkers, b.DTR.RouteWorkers = routeWorkers, routeWorkers
	return b.STR, b.DTR
}

// warmBudgets is the set-up phase's shortened pipeline: enough steps (50) to
// take every lazily built router and buffer of the session.
func warmBudgets() (search.STRParams, search.Params) {
	str, dtr := searchBudgets()
	str.Iterations = 10
	dtr.N, dtr.K = 20, 10
	return str, dtr
}

// pipeline is one finished STR → DTR run.
type pipeline struct {
	str            *search.STRResult
	dtr            *search.DTRResult
	strIters       int
	strDur, dtrDur time.Duration
	lat            []time.Duration // one per DTR step, OnEvent to OnEvent
	steps          int             // DTR iterations (perturbations are not steps)
	accepted       int
}

// ops is what throughput counts: STR iterations plus DTR steps.
func (p *pipeline) ops() int { return p.strIters + p.steps }

// pipelineSeed makes pipeline 1 repeat pipeline 0's seed — measured like any
// other, and checked to return the identical answer — and gives every later
// pipeline a fresh pair of seeds.
func pipelineSeed(seed uint64, i int) uint64 { return seed + 2*uint64(max(i-1, 0)) }

// searchInstances is how many hier instances (same structure; delays and
// traffic from different seeds) a run's pipelines rotate over. What a search
// costs follows its trajectory, and the trajectory follows the instance: over
// ten seeds one instance's pipeline rate spreads by 18 %. Rotating over four
// brings runs with different seeds closer.
const searchInstances = 4

// searchInstance is one loaded hier instance with its only session leased.
type searchInstance struct {
	spec scenario.InstanceSpec
	ev   *eval.Evaluator // independent: scores returned weights from scratch
	h    *engine.Handle
	sess *engine.Session
}

// searching is the search-hier workload's state.
type searching struct {
	cfg   config
	insts [searchInstances]searchInstance
}

// instanceOf gives pipelines 0 and 1 (the repeated seed) instance 0 and deals
// the rest round robin, so the fifth pipeline has touched every instance: a
// session reaches its full size during its first whole pipeline, and
// heap_live_mb must not depend on whether a run found time for a seventh.
func (w *searching) instanceOf(pipeline int) *searchInstance {
	return &w.insts[max(pipeline-1, 0)%searchInstances]
}

// runPipeline runs one pipeline on in's leased session. onStep, when non-nil,
// runs on the search goroutine after each DTR step's latency is taken and is
// not charged to the next step.
func (in *searchInstance) runPipeline(str search.STRParams, dtr search.Params, seed uint64, onStep func(ev search.TraceEvent, start, end time.Time)) (*pipeline, error) {
	p := &pipeline{strIters: str.Iterations, lat: make([]time.Duration, 0, dtr.N*2+dtr.K)}
	ev := in.sess.Evaluator()
	str.Seed, dtr.Seed = seed, seed+1
	var err error
	start := time.Now()
	if p.str, err = search.STR(ev, str); err != nil {
		return nil, err
	}
	p.strDur = time.Since(start)

	var last time.Time
	dtr.OnEvent = func(e search.TraceEvent) {
		now := time.Now()
		if e.Kind != "perturb" {
			p.steps++
			if e.Accepted {
				p.accepted++
			}
			if !last.IsZero() {
				p.lat = append(p.lat, now.Sub(last))
				if onStep != nil {
					onStep(e, last, now)
					now = time.Now()
				}
			}
		}
		last = now
	}
	start = time.Now()
	if p.dtr, err = search.DTRFrom(ev, p.str.W, p.str.W, dtr); err != nil {
		return nil, err
	}
	p.dtrDur = time.Since(start)
	in.sess.Reset()
	return p, nil
}

// check holds a pipeline's answer against the independent evaluator: the
// reported objectives equal a fresh full evaluation of the returned weights,
// and DTR, warm-started from STR, is lexicographically no worse.
func (in *searchInstance) check(p *pipeline) error {
	str, err := in.ev.EvaluateSTR(p.str.W)
	if err != nil {
		return err
	}
	dtr, err := in.ev.EvaluateDTR(p.dtr.WH, p.dtr.WL)
	if err != nil {
		return err
	}
	same := func(a, b *eval.Result) bool {
		return sameBits(a.PhiH, b.PhiH) && sameBits(a.PhiL, b.PhiL) && sameBits(a.Lambda, b.Lambda)
	}
	switch {
	case !same(str, p.str.Result):
		return fmt.Errorf("STR reported ΦH=%v ΦL=%v Λ=%v; a fresh evaluation of its weights gives %v %v %v",
			p.str.Result.PhiH, p.str.Result.PhiL, p.str.Result.Lambda, str.PhiH, str.PhiL, str.Lambda)
	case !same(dtr, p.dtr.Result):
		return fmt.Errorf("DTR reported ΦH=%v ΦL=%v Λ=%v; a fresh evaluation of its weights gives %v %v %v",
			p.dtr.Result.PhiH, p.dtr.Result.PhiL, p.dtr.Result.Lambda, dtr.PhiH, dtr.PhiL, dtr.Lambda)
	case p.str.Best.Less(p.dtr.Best):
		return fmt.Errorf("DTR objective %+v is worse than the STR objective %+v it started from", p.dtr.Best, p.str.Best)
	}
	return nil
}

// checkRepeat holds a repeated seed to the identical answer.
func checkRepeat(a, b *pipeline) error {
	if !slices.Equal(a.str.W, b.str.W) || !slices.Equal(a.dtr.WH, b.dtr.WH) || !slices.Equal(a.dtr.WL, b.dtr.WL) {
		return fmt.Errorf("repeated seed returned different weights")
	}
	if a.str.Evaluations != b.str.Evaluations || a.dtr.Evaluations != b.dtr.Evaluations ||
		a.dtr.DeltaEvals != b.dtr.DeltaEvals || a.dtr.FullEvals != b.dtr.FullEvals {
		return fmt.Errorf("repeated seed returned different evaluation counts")
	}
	return nil
}

// setUp loads every instance, leases its session, and warms the first with a
// shortened pipeline; the others' sessions build their routers on their first
// pipeline, a few milliseconds in two and a half seconds.
func (w *searching) setUp() (time.Duration, error) {
	start := time.Now()
	for i := range w.insts {
		in := &w.insts[i]
		var err error
		if in.h, err = engine.Load(engine.Spec{Name: "search-hier", Instance: in.spec, Pool: engine.PoolConfig{Size: 1}}); err != nil {
			return 0, err
		}
		if in.sess, err = in.h.Session(context.Background()); err != nil {
			return 0, err
		}
	}
	str, dtr := warmBudgets()
	if _, err := w.insts[0].runPipeline(str, dtr, w.cfg.seed, nil); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (w *searching) tearDown() {
	for i := range w.insts {
		in := &w.insts[i]
		if in.h != nil {
			_ = in.h.Release(in.sess) // Reset after each pipeline left nothing armed
			in.h.Close()
		}
		in.h, in.sess = nil, nil
	}
}

func runSearch(cfg config) (*outcome, error) {
	w := &searching{cfg: cfg}
	for i := range w.insts {
		in := &w.insts[i]
		in.spec = hierSpec(cfg.seed + uint64(i)<<32)
		inst, err := in.spec.Build()
		if err != nil {
			return nil, err
		}
		if in.ev, err = inst.Evaluator(); err != nil {
			return nil, err
		}
		in.ev.SetRouteWorkers(routeWorkers)
	}
	defer w.tearDown()
	setups, err := setUpRepeatedly(cfg.setups, w.setUp, w.tearDown)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return w.traced()
	}

	// Whole pipelines, started until the measured time has elapsed. Each is
	// one slice of the phase: its step latencies, and its rate over STR
	// iterations and DTR steps together.
	str, dtr := cfg.sizes.str, cfg.sizes.dtr
	var res loopResult
	var first *pipeline
	var elapsed time.Duration
	for i := 0; elapsed < cfg.dur; i++ {
		in := w.instanceOf(i)
		p, err := in.runPipeline(str, dtr, pipelineSeed(cfg.seed, i), nil)
		if err != nil {
			return nil, err
		}
		err = in.check(p)
		switch {
		case i == 0:
			first = p
		case i == 1 && err == nil:
			err = checkRepeat(first, p)
		}
		res.attempted += p.ops()
		elapsed += p.strDur + p.dtrDur
		if err != nil {
			res.failed += p.ops()
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("pipeline %d: %w", i, err)
			}
			continue
		}
		res.windows = append(res.windows, window{lat: p.lat, ops: p.ops(), span: p.strDur + p.dtrDur})
	}
	return endToEndOutcome(setups, res), nil
}

// mover generates Algorithm 2's move shape against a fixed base solution, the
// way the search draws it: arcs ranked by their cost in the base solution,
// two heavy-tailed rank draws, raise an arc from the costly end by Step and
// lower one from the cheap end by Step, clamped to [1, WMax] — so from a
// mostly unit-weight base many moves are a lone increase, as many of the
// search's are. Each candidate is relative to the base, so consecutive
// candidates differ on the previous move's arcs plus their own, as the
// search's pending-change tracking has it.
type mover struct {
	rng        *rand.Rand
	base, cand spf.Weights
	p          search.Params
	order      []graph.EdgeID // arcs by decreasing cost in the base solution
	rankCDF    []float64      // P(k) ∝ k^-Tau over the ranks a draw may take
	changed    []graph.EdgeID
}

func newMover(rng *rand.Rand, base spf.Weights, p search.Params, arcCost func(graph.EdgeID) cost.Lex) *mover {
	m := &mover{rng: rng, base: base, cand: base.Clone(), p: p, order: make([]graph.EdgeID, len(base))}
	for i := range m.order {
		m.order[i] = graph.EdgeID(i)
	}
	sort.SliceStable(m.order, func(i, j int) bool { return arcCost(m.order[j]).Less(arcCost(m.order[i])) })
	total := 0.0
	for k := 1; k <= len(base)-p.Neighbors; k++ {
		total += math.Pow(float64(k), -p.Tau)
		m.rankCDF = append(m.rankCDF, total)
	}
	for i := range m.rankCDF {
		m.rankCDF[i] /= total
	}
	return m
}

func (m *mover) rank() int {
	return min(sort.SearchFloat64s(m.rankCDF, m.rng.Float64()), len(m.rankCDF)-1)
}

// next returns the next candidate and the arcs on which it differs from the
// previous one. Both slices are reused.
func (m *mover) next() (spf.Weights, []graph.EdgeID) {
	for _, a := range m.changed {
		m.cand[a] = m.base[a]
	}
	if len(m.changed) == 4 { // keep only the previous move's own arcs
		m.changed = m.changed[:copy(m.changed, m.changed[2:])]
	}
	for {
		j := m.rng.IntN(m.p.Neighbors)
		up, down := m.order[m.rank()+j], m.order[len(m.order)-1-m.rank()-j]
		m.cand[up] = min(m.base[up]+m.p.Step, m.p.WMax)
		m.cand[down] = max(m.base[down]-m.p.Step, 1)
		if up != down && (m.cand[up] != m.base[up] || m.cand[down] != m.base[down]) {
			m.changed = append(m.changed, up, down)
			return m.cand, m.changed
		}
		m.cand[up], m.cand[down] = m.base[up], m.base[down]
	}
}

// traced keeps every pipeline on instance 0: the replay rig holds that
// instance, and a replay must see the input its op saw.
func (w *searching) traced() (*outcome, error) {
	in := &w.insts[0]
	tr := newTracer()
	m := make(map[string]float64)
	strP, dtrP := w.cfg.sizes.str, w.cfg.sizes.dtr

	probe, err := engineProbe(tr, m, in.spec, 1, func(s *engine.Session) error {
		warmSTR, warmDTR := warmBudgets()
		warmSTR.Seed, warmDTR.Seed = w.cfg.seed, w.cfg.seed+1
		str, err := search.STR(s.Evaluator(), warmSTR)
		if err != nil {
			return err
		}
		_, err = search.DTRFrom(s.Evaluator(), str.W, str.W, warmDTR)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	r := newRig(probe)
	if err := r.leaseSeries(tr); err != nil {
		return nil, err
	}

	// Pipeline 0 runs untraced: its result structs and the obs counter delta
	// across it are the count metrics, and its step rate is the baseline the
	// tracing overhead is taken against.
	before := readCounters()
	p0, err := in.runPipeline(strP, dtrP, pipelineSeed(w.cfg.seed, 0), nil)
	if err != nil {
		return nil, err
	}
	after := readCounters()
	out := &outcome{attempted: p0.ops(), metrics: m}
	if err := in.check(p0); err != nil {
		out.failed, out.err = p0.ops(), fmt.Errorf("pipeline 0: %w", err)
	}
	spfCounts(m, before, after, p0.ops())
	tr.add("search.str", noSpan, -1, tr.epoch, tr.epoch.Add(p0.strDur), 1)
	tr.add("search.dtr", noSpan, -1, tr.epoch, tr.epoch.Add(p0.dtrDur), 1)
	m["search.evals_per_step"] = ratio(float64(p0.dtr.Evaluations), float64(p0.steps))
	m["search.delta_eval_share"] = ratio(float64(p0.dtr.DeltaEvals), float64(p0.dtr.Evaluations))
	m["search.accept_ratio"] = ratio(float64(p0.accepted), float64(p0.steps))
	m["search.pruned_share"] = ratio(float64(p0.dtr.Pruned), float64(p0.dtr.Pruned+p0.dtr.Evaluations))
	m["search.phi_l_dtr"] = p0.dtr.Result.PhiL
	m["search.rl_ratio"] = ratio(p0.str.Result.PhiL, p0.dtr.Result.PhiL)
	var untraced time.Duration
	for _, d := range p0.lat {
		untraced += d
	}

	// The replay evaluator: a second session on the probe handle, holding the
	// base solution the synthetic moves are taken against.
	rs, err := probe.Session(context.Background())
	if err != nil {
		return nil, err
	}
	defer probe.Release(rs) //nolint:errcheck // nothing armed: the rig owns the routers that checkpoint
	rev := rs.Evaluator()
	rng := stream(w.cfg.seed, streamMoves)

	// The STR search has no per-iteration hook, so its delta objective is a
	// stand-alone series of its move — one arc to a uniform new weight — from
	// the unit-weight start, each candidate relative to that start.
	unit := spf.Uniform(r.g.NumEdges())
	if _, err := rev.ObjectiveSTRDelta(unit, nil); err != nil {
		return nil, err
	}
	cand, changed := unit.Clone(), make([]graph.EdgeID, 0, 2)
	for i := 0; i < 32; i++ {
		arc := graph.EdgeID(rng.IntN(len(unit)))
		for _, a := range changed {
			cand[a] = unit[a]
		}
		cand[arc] = 2 + rng.IntN(strP.WMax-1)
		changed = append(changed[max(len(changed)-1, 0):], arc)
		tr.timed("eval.delta_str", noSpan, -1, 1, func() { _, err = rev.ObjectiveSTRDelta(cand, changed) })
		if err != nil {
			return nil, err
		}
	}

	var replayErr error
	var op int32
	for i := 1; replayErr == nil && !tr.full() && (i == 1 || time.Since(tr.epoch) < w.cfg.dur); i++ {
		// The synthetic moves perturb pipeline 0's STR answer: the setting a
		// DTR phase starts from, known before this pipeline's own STR returns.
		base, err := rev.EvaluateDTR(p0.str.W, p0.str.W)
		if err != nil {
			return nil, err
		}
		if err := r.pin(p0.str.W, p0.str.W); err != nil {
			return nil, err
		}
		rev.ResetDelta()
		if _, err := rev.ObjectiveHDelta(p0.str.W, nil, base.LLoads); err != nil {
			return nil, err
		}
		if _, err := rev.ObjectiveLDelta(p0.str.W, nil, base.Residual); err != nil {
			return nil, err
		}
		movesH := newMover(rng, p0.str.W, dtrP, base.LinkCost)
		movesL := newMover(rng, p0.str.W, dtrP, func(id graph.EdgeID) cost.Lex { return cost.Lex{Primary: base.LinkPhiL[id]} })
		var attr eval.Attribution

		p, err := in.runPipeline(strP, dtrP, pipelineSeed(w.cfg.seed, i), func(e search.TraceEvent, start, end time.Time) {
			if replayErr != nil || tr.full() {
				return
			}
			root := tr.add("search.step", noSpan, op, start, end, 1)
			nH, nL := e.Candidates, 0
			switch e.Kind {
			case "findL":
				nH, nL = 0, e.Candidates
			case "refine":
				nH, nL = e.Candidates/2, e.Candidates-e.Candidates/2
			}
			for j := 0; j < nH+nL && replayErr == nil; j++ {
				name, moves, dr := "eval.delta_h", movesH, r.drH
				if j >= nH {
					name, moves, dr = "eval.delta_l", movesL, r.drL
				}
				cand, changed := moves.next()
				delta := tr.timed(name, root, op, 1, func() {
					if j < nH {
						_, replayErr = rev.ObjectiveHDelta(cand, changed, base.LLoads)
					} else {
						_, replayErr = rev.ObjectiveLDelta(cand, changed, base.Residual)
					}
				})
				if replayErr == nil {
					tr.timed("spf.apply_step", delta, op, 1, func() { _, replayErr = dr.Apply(cand, changed) })
				}
			}
			if op%16 == 0 && replayErr == nil {
				// What a candidate costs without the delta path, and what
				// guided search would pay per step: references, in no ladder.
				tr.timed("eval.full_l", noSpan, -1, 1, func() { _, replayErr = rev.ObjectiveL(movesL.cand, base.Residual) })
				tr.timed("eval.attribute", noSpan, -1, 1, func() { rev.Attribute(base, &attr) })
			}
			op++
		})
		if err != nil {
			return nil, err
		}
		out.attempted += p.ops()
		if err := in.check(p); err != nil {
			out.failed += p.ops()
			if out.err == nil {
				out.err = fmt.Errorf("pipeline %d: %w", i, err)
			}
		}
		if i == 1 && out.err == nil {
			if err := checkRepeat(p0, p); err != nil {
				out.failed, out.err = out.failed+p.ops(), err
			}
		}
	}
	if replayErr != nil {
		return nil, fmt.Errorf("bench: search-hier: replay: %w", replayErr)
	}

	v := tr.view()
	out.samples = len(v.rootDurations())
	m["engine.lease_timeouts"] = readCounters().leaseTimeouts
	m["trace.overhead_pct"] = traceOverheadPct(ratio(float64(len(p0.lat)), untraced.Seconds()), 1, v.rootDurations())
	spanMetrics(v, m)
	out.traceFile, err = tr.write(w.cfg.outDir, "search-hier", w.cfg.prov)
	return out, err
}
