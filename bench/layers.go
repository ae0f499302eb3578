package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"dualtopo/internal/engine"
	"dualtopo/internal/graph"
	"dualtopo/internal/obs"
	"dualtopo/internal/scenario"
	"dualtopo/internal/spf"
	"dualtopo/internal/traffic"
)

// rig is the traced run's own copy of every layer below the entry point: an
// engine handle over the same instance, routing plans, a tree computer and
// one delta router per class. Replays run here so that timing a layer never
// touches the state the op under measurement is using. One rig per client;
// a rig is not safe for concurrent use.
type rig struct {
	h      *engine.Handle
	g      *graph.Graph
	th, tl *traffic.Matrix

	planH, planL *spf.Plan
	planSTR      *spf.MultiPlan
	comp         *spf.Computer
	trees        []spf.Tree
	demand       []float64
	loads        []float64

	// drH and drL mirror how the sweeper, the replayer and the DTR delta
	// objectives each hold one router per class.
	drH, drL     *spf.DeltaRouter
	baseH, baseL spf.Weights // the pinned setting
	bufH, bufL   spf.Weights // the setting being applied: base, but for the arcs in play
	diff         []graph.EdgeID

	rec memWriter
	enc bytes.Buffer
}

func newRig(h *engine.Handle) *rig {
	g := h.Graph()
	th, tl := h.Matrices()
	m := g.NumEdges()
	return &rig{
		h: h, g: g, th: th, tl: tl,
		planH: spf.NewPlan(g, th), planL: spf.NewPlan(g, tl), planSTR: spf.NewMultiPlan(g, th, tl),
		comp:  spf.NewComputer(g),
		trees: make([]spf.Tree, g.NumNodes()),
		loads: make([]float64, m),
		drH:   spf.NewDeltaRouter(g, th), drL: spf.NewDeltaRouter(g, tl),
		baseH: make(spf.Weights, m), baseL: make(spf.Weights, m),
		bufH: make(spf.Weights, m), bufL: make(spf.Weights, m),
	}
}

// decodeStrict is dtrd's strict request decode.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encode is dtrd's indented response encode.
func (r *rig) encode(v any) error {
	r.enc.Reset()
	enc := json.NewEncoder(&r.enc)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// lease times one empty Session/Release pair — what a request pays the pool
// on top of its evaluation.
func (r *rig) lease(tr *tracer, parent, op int32) error {
	var err error
	tr.timed("engine.lease", parent, op, 1, func() {
		var s *engine.Session
		if s, err = r.h.Session(context.Background()); err == nil {
			err = r.h.Release(s)
		}
	})
	return err
}

// leaseSeries records a stand-alone series of leases, for the workloads whose
// ops never lease.
func (r *rig) leaseSeries(tr *tracer) error {
	for i := 0; i < 256; i++ {
		if err := r.lease(tr, noSpan, -1); err != nil {
			return err
		}
	}
	return nil
}

// routeLadder replays a full routing pass the way the evaluator runs it —
// Plan.Route per class, or one MultiPlan.Route for STR — and under it the
// per-destination tree builds and load accumulations it is made of.
func (r *rig) routeLadder(tr *tracer, parent, op int32, wH, wL spf.Weights, str bool) error {
	var err error
	route := tr.timed("spf.route", parent, op, 1, func() {
		if str {
			err = r.planSTR.Route(wH, r.th, r.tl)
			return
		}
		if err = r.planH.Route(wH, r.th); err == nil {
			err = r.planL.Route(wL, r.tl)
		}
	})
	if err != nil {
		return err
	}
	type pass struct {
		dests []graph.NodeID
		w     spf.Weights
		tms   []*traffic.Matrix
	}
	passes := []pass{{r.planH.Destinations(), wH, []*traffic.Matrix{r.th}}, {r.planL.Destinations(), wL, []*traffic.Matrix{r.tl}}}
	if str {
		passes = []pass{{r.planSTR.Destinations(), wH, []*traffic.Matrix{r.th, r.tl}}}
	}
	for _, p := range passes {
		tr.timed("spf.tree", route, op, len(p.dests), func() {
			for di, dest := range p.dests {
				r.comp.Tree(dest, p.w, &r.trees[di])
			}
		})
		tr.timed("spf.addloads", route, op, len(p.dests), func() {
			for di, dest := range p.dests {
				for _, tm := range p.tms {
					r.demand = tm.DemandsTo(dest, r.demand)
					if err == nil {
						err = r.comp.AddLoads(&r.trees[di], r.demand, r.loads)
					}
				}
			}
		})
	}
	return err
}

// pin moves both class routers to the base setting (wH, wL), incrementally
// when they already hold a routing. Untimed: ladders start from here.
func (r *rig) pin(wH, wL spf.Weights) error {
	for _, m := range []struct {
		dr        *spf.DeltaRouter
		w         spf.Weights
		base, buf spf.Weights
	}{{r.drH, wH, r.baseH, r.bufH}, {r.drL, wL, r.baseL, r.bufL}} {
		r.diff = spf.DiffArcs(m.dr.Weights(), m.w, r.diff[:0])
		if _, err := m.dr.Apply(m.w, r.diff); err != nil {
			return err
		}
		copy(m.base, m.w)
		copy(m.buf, m.w)
	}
	return nil
}

// apply moves both routers to (bufH, bufL), which differ from their current
// setting on arcs only.
func (r *rig) apply(arcs []graph.EdgeID) error {
	if _, err := r.drH.Apply(r.bufH, arcs); err != nil {
		return err
	}
	_, err := r.drL.Apply(r.bufL, arcs)
	return err
}

// failLadder replays one failure state against the pinned base on both class
// routers, both ways the system handles it: checkpoint → disable → revert (the
// sweeper's per-state cycle) and disable → repair by a second Apply (churn's
// link-down/link-up). at places each span: under the calling op's ladder when
// the op really takes that step, stand-alone (noSpan, -1) when it is only a
// reference measurement. A state that disconnects demand records nothing: the
// root span is all there is to say about it.
func (r *rig) failLadder(tr *tracer, at func(name string) (parent, op int32), arcs []graph.EdgeID) error {
	set := func(disabled bool) {
		for _, a := range arcs {
			r.bufH[a], r.bufL[a] = r.baseH[a], r.baseL[a]
			if disabled {
				r.bufH[a], r.bufL[a] = spf.Disabled, spf.Disabled
			}
		}
	}
	revert := func() {
		r.drH.Revert()
		r.drL.Revert()
	}
	add := func(name string, start, end time.Time, count int) {
		parent, op := at(name)
		tr.add(name, parent, op, start, end, count)
	}
	t0 := time.Now()
	if err := r.drH.Checkpoint(); err != nil {
		return err
	}
	if err := r.drL.Checkpoint(); err != nil {
		return err
	}
	t1 := time.Now()
	set(true)
	t2 := time.Now()
	err := r.apply(arcs)
	t3 := time.Now()
	if err != nil {
		revert()
		set(false)
		return nil
	}
	revert()
	t4 := time.Now()
	// One checkpoint/revert cycle is two spans; the item is counted once.
	add("spf.cp_revert", t0, t1, 1)
	add("spf.apply_fail", t2, t3, 1)
	add("spf.cp_revert", t3, t4, 0)

	// Disable again, untimed, so the repair has something to repair.
	if err := r.apply(arcs); err != nil {
		return err
	}
	set(false)
	t5 := time.Now()
	err = r.apply(arcs)
	add("spf.apply_repair", t5, time.Now(), 1)
	return err
}

// counters reads the process-wide obs registry the layers report into. The
// per-layer counts are deltas of these over a fixed, seed-determined set of
// ops run on one goroutine, so they repeat exactly from run to run.
type counters struct {
	treesBucket, treesHeap, treesPartial float64
	applies, recomputed, reused          float64
	whatifStates, leaseTimeouts          float64
}

func readCounters() counters {
	var c counters
	for _, m := range obs.Default().Snapshot().Metrics {
		for _, v := range m.Values {
			label := ""
			if len(v.LabelValues) > 0 {
				label = v.LabelValues[0]
			}
			switch m.Name + "/" + label {
			case "spf_trees_total/bucket":
				c.treesBucket = v.Value
			case "spf_trees_total/heap":
				c.treesHeap = v.Value
			case "spf_trees_partial_total/":
				c.treesPartial = v.Value
			case "spf_delta_applies_total/":
				c.applies = v.Value
			case "spf_delta_trees_total/recomputed":
				c.recomputed = v.Value
			case "spf_delta_trees_total/reused":
				c.reused = v.Value
			case "engine_session_whatifs_total/":
				c.whatifStates = v.Value
			case "engine_lease_timeouts_total/":
				c.leaseTimeouts = v.Value
			}
		}
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spfCounts turns a counter delta over ops ops into the spf layer's count
// metrics.
func spfCounts(m map[string]float64, before, after counters, ops int) {
	trees := (after.treesBucket - before.treesBucket) + (after.treesHeap - before.treesHeap)
	partial := after.treesPartial - before.treesPartial
	recomputed := after.recomputed - before.recomputed
	reused := after.reused - before.reused
	m["spf.trees_per_op"] = ratio(trees+partial, float64(ops))
	m["spf.dirty_trees_per_apply"] = ratio(recomputed, after.applies-before.applies)
	m["spf.tree_reuse_ratio"] = ratio(reused, reused+recomputed)
	m["spf.partial_share"] = ratio(partial, recomputed)
	m["spf.heap_fallback_share"] = ratio(after.treesHeap-before.treesHeap, trees)
}

// engineProbe measures the engine and scenario layers' set-up costs on a
// fresh handle: instance build, load, first session, a warm session's heap
// and Reset. warm runs the workload's characteristic operation on the new
// session so session_mb covers the state that operation makes it own.
func engineProbe(tr *tracer, m map[string]float64, spec scenario.InstanceSpec, pool int, warm func(*engine.Session) error) (*engine.Handle, error) {
	var err error
	tr.timed("scenario.build", noSpan, -1, 1, func() { _, err = spec.Build() })
	if err != nil {
		return nil, err
	}
	var h *engine.Handle
	tr.timed("engine.load", noSpan, -1, 1, func() {
		h, err = engine.Load(engine.Spec{Instance: spec, Pool: engine.PoolConfig{Size: pool}})
	})
	if err != nil {
		return nil, err
	}
	before := heapLiveMB()
	var s *engine.Session
	tr.timed("engine.session_new", noSpan, -1, 1, func() { s, err = h.Session(context.Background()) })
	if err != nil {
		return nil, err
	}
	if err := warm(s); err != nil {
		return nil, fmt.Errorf("bench: warm probe session: %w", err)
	}
	m["engine.session_mb"] = heapLiveMB() - before
	tr.timed("engine.reset", noSpan, -1, 1, s.Reset)
	if err := h.Release(s); err != nil {
		return nil, err
	}
	return h, nil
}

// heapLiveMB is HeapAlloc after two collections: what is still reachable.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// allocProbe runs fn n times on this goroutine and returns mallocs and bytes
// per call.
func allocProbe(n int, fn func(i int) error) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n && err == nil; i++ {
		err = fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n), err
}

// traceOverheadPct compares the rate the traced phase's root spans alone
// would sustain (replays excluded) with the untraced phase's measured rate.
func traceOverheadPct(untracedOpsPerS float64, clients int, roots []time.Duration) float64 {
	var sum time.Duration
	for _, d := range roots {
		sum += d
	}
	if sum == 0 || untracedOpsPerS == 0 {
		return 0
	}
	traced := float64(clients) * float64(len(roots)) / sum.Seconds()
	return 100 * (untracedOpsPerS - traced) / untracedOpsPerS
}
