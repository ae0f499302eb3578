package main

import (
	"context"
	"fmt"
	"time"

	"dualtopo/internal/churn"
	"dualtopo/internal/engine"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/scenario"
	"dualtopo/internal/spf"
)

// churnWarmSteps is the set-up phase's share of a pass.
const churnWarmSteps = 50

// churning is the churn-replay workload's state: one timeline replayed
// Start/Step/Finish in instant mode, pass after pass.
type churning struct {
	cfg    config
	spec   scenario.InstanceSpec
	ev     *eval.Evaluator // independent: backs the verified pass
	tls    []*churn.Timeline
	wH, wL spf.Weights

	h    *engine.Handle
	sess *engine.Session
	rep  *churn.Replayer
}

// warmReplayer builds a replayer on e and takes it through the start of a
// pass, so its routers and scratch are allocated.
func (w *churning) warmReplayer(e *eval.Evaluator, opts churn.Options) (*churn.Replayer, error) {
	rep, err := churn.NewReplayer(e, w.wH, w.wL, opts)
	if err != nil {
		return nil, err
	}
	if _, err := rep.Start(); err != nil {
		return nil, err
	}
	tl := w.tls[0]
	for i := 0; i < min(churnWarmSteps, len(tl.Events)); i++ {
		if _, err := rep.Step(&tl.Events[i]); err != nil {
			return nil, err
		}
	}
	rep.Finish(tl.Horizon)
	return rep, nil
}

func (w *churning) setUp() (time.Duration, error) {
	start := time.Now()
	var err error
	if w.h, err = engine.Load(engine.Spec{Name: "churn-replay", Instance: w.spec, Pool: engine.PoolConfig{Size: 1}}); err != nil {
		return 0, err
	}
	if w.sess, err = w.h.Session(context.Background()); err != nil {
		return 0, err
	}
	if w.rep, err = w.warmReplayer(w.sess.Evaluator(), churn.Options{}); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (w *churning) tearDown() {
	if w.h != nil {
		_ = w.h.Release(w.sess) // the replayer owns its routers; the session's are untouched
		w.h.Close()
	}
	w.h, w.sess, w.rep = nil, nil, nil
}

// passes drives back-to-back replays through closedLoop, one timeline after
// another, round robin. Start and Finish fall inside the measured wall but
// are not ops. Every finished pass of a timeline must integrate to the same
// Summary: the verified pass's for timeline 0, the first finished pass's for
// the others.
type passes struct {
	rep      *churn.Replayer
	tls      []*churn.Timeline
	want     []*churn.Summary
	finished int // whole passes so far
	pos      int // next event of the current pass
	badSum   int // ops of finished passes whose Summary differed
	// onStep, when non-nil, sees every step after its latency is taken.
	onStep func(k int, ev *churn.Event, rec *churn.Record, start, end time.Time)
}

func newPasses(rep *churn.Replayer, tls []*churn.Timeline, verified churn.Summary) *passes {
	p := &passes{rep: rep, tls: tls, want: make([]*churn.Summary, len(tls))}
	p.want[0] = &verified
	return p
}

func (p *passes) step(_, k int) (time.Duration, error) {
	t := p.finished % len(p.tls)
	tl := p.tls[t]
	if p.pos == 0 {
		if _, err := p.rep.Start(); err != nil {
			return 0, err
		}
	}
	ev := &tl.Events[p.pos]
	start := time.Now()
	rec, err := p.rep.Step(ev)
	end := time.Now()
	if err != nil {
		return 0, err
	}
	if p.onStep != nil {
		p.onStep(k, ev, rec, start, end)
	}
	if p.pos++; p.pos == len(tl.Events) {
		sum := p.rep.Finish(tl.Horizon)
		switch {
		case p.want[t] == nil:
			p.want[t] = &sum
		case sum != *p.want[t]:
			p.badSum += len(tl.Events)
		}
		p.pos = 0
		p.finished++
	}
	return end.Sub(start), nil
}

// settle charges every op of a pass whose Summary came out different.
func (p *passes) settle(res *loopResult) {
	if p.badSum > 0 {
		res.failed += p.badSum
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("%d ops belong to passes that integrated to a different Summary than the timeline's first", p.badSum)
		}
	}
}

func runChurn(cfg config) (*outcome, error) {
	w := &churning{cfg: cfg, spec: hierSpec(cfg.seed)}
	inst, err := w.spec.Build()
	if err != nil {
		return nil, err
	}
	if w.ev, err = inst.Evaluator(); err != nil {
		return nil, err
	}
	w.ev.SetRouteWorkers(routeWorkers)
	if w.tls, err = churnTimelines(inst.G, cfg.seed, cfg.sizes.churnHorizon); err != nil {
		return nil, err
	}
	w.wH, w.wL = churnWeights(inst.G.NumEdges())

	// One untimed pass of timeline 0 on the independent side, with delta ==
	// full asserted per event; its Summary is what every measured pass of that
	// timeline must reproduce.
	verified, err := churn.NewReplayer(w.ev, w.wH, w.wL, churn.Options{Verify: true, RouteWorkers: routeWorkers})
	if err != nil {
		return nil, err
	}
	want, err := verified.Run(w.tls[0], nil)
	if err != nil {
		return nil, fmt.Errorf("bench: churn-replay: verified pass: %w", err)
	}

	defer w.tearDown()
	setups, err := setUpRepeatedly(cfg.setups, w.setUp, w.tearDown)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return w.traced(*want)
	}
	p := newPasses(w.rep, w.tls, *want)
	res := closedLoop(1, cfg.dur, p.step, nil)
	p.settle(&res)
	return endToEndOutcome(setups, res), nil
}

// linkArcs maps a link event's target to its two arcs.
func linkArcs(g *graph.Graph) map[string][]graph.EdgeID {
	out := make(map[string][]graph.EdgeID)
	for id := 0; id < g.NumEdges(); id++ {
		uv := graph.EdgeID(id)
		if vu, ok := g.Reverse(uv); ok && uv < vu {
			out[churn.LinkTarget(g, uv)] = []graph.EdgeID{uv, vu}
		}
	}
	return out
}

func (w *churning) traced(want churn.Summary) (*outcome, error) {
	tr := newTracer()
	m := make(map[string]float64)
	n := len(w.tls[0].Events)

	probe, err := engineProbe(tr, m, w.spec, 1, func(s *engine.Session) error {
		_, err := w.warmReplayer(s.Evaluator(), churn.Options{})
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
	if err := r.pin(w.wH, w.wL); err != nil {
		return nil, err
	}
	arcsOf := linkArcs(r.g)

	// Pass 0 runs untraced: the obs counter delta across it and its records
	// are the count metrics, its step rate the tracing-overhead baseline.
	var moved int
	var untraced time.Duration
	p := newPasses(w.rep, w.tls, want)
	p.onStep = func(_ int, _ *churn.Event, rec *churn.Record, start, end time.Time) {
		moved += rec.MovedArcs
		untraced += end.Sub(start)
	}
	tr.timed("churn.start", noSpan, -1, 1, func() { _, err = w.rep.Start() })
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: m}
	before := readCounters()
	for k := 0; p.finished == 0; k++ { // the first step starts the pass itself
		out.attempted++
		if _, err := p.step(0, k); err != nil {
			return nil, err
		}
	}
	spfCounts(m, before, readCounters(), n)
	m["churn.moved_arcs_per_event"] = float64(moved) / float64(n)

	// One pass in convergence mode, for what OSPF-window scoring adds to a step.
	conv, err := w.warmReplayer(w.sess.Evaluator(), churn.Options{Convergence: churn.ConvergenceOptions{Enabled: true}})
	if err != nil {
		return nil, err
	}
	if _, err := conv.Start(); err != nil {
		return nil, err
	}
	for i := range w.tls[0].Events {
		tr.timed("churn.conv_step", noSpan, -1, 1, func() { _, err = conv.Step(&w.tls[0].Events[i]) })
		if err != nil {
			return nil, err
		}
	}

	// Traced passes: every step is a root span named for its event kind; a
	// link event's ladder is the single-state disable or repair it amounts to
	// on a router pair pinned at the intact setting.
	var replayErr error
	p.onStep = func(k int, ev *churn.Event, _ *churn.Record, start, end time.Time) {
		op := int32(k)
		name := "churn.step_node"
		switch ev.Kind {
		case churn.LinkDown:
			name = "churn.step_link_down"
		case churn.LinkUp:
			name = "churn.step_link_up"
		case churn.WeightSet:
			name = "churn.step_weight"
		}
		root := tr.add(name, noSpan, op, start, end, 1)
		if ev.Kind != churn.LinkDown && ev.Kind != churn.LinkUp || replayErr != nil {
			return
		}
		inLadder := "spf.apply_fail"
		if ev.Kind == churn.LinkUp {
			inLadder = "spf.apply_repair"
		}
		replayErr = r.failLadder(tr, func(span string) (int32, int32) {
			if span == inLadder {
				return root, op
			}
			return noSpan, -1
		}, arcsOf[ev.Target])
	}
	res := closedLoop(1, w.cfg.dur*7/10, p.step, func() bool { return tr.full() || replayErr != nil })
	if replayErr != nil {
		return nil, fmt.Errorf("bench: churn-replay: replay: %w", replayErr)
	}
	p.settle(&res)
	out.attempted += res.attempted
	out.failed, out.err = res.failed, res.firstErr

	v := tr.view()
	out.samples = len(v.rootDurations())
	m["engine.lease_timeouts"] = readCounters().leaseTimeouts
	m["trace.overhead_pct"] = traceOverheadPct(ratio(float64(n), untraced.Seconds()), 1, v.rootDurations())
	spanMetrics(v, m)
	out.traceFile, err = tr.write(w.cfg.outDir, "churn-replay", w.cfg.prov)
	return out, err
}
