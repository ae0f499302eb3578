package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dualtopo/internal/dtrd"
	"dualtopo/internal/engine"
	"dualtopo/internal/eval"
	"dualtopo/internal/resilience"
	"dualtopo/internal/scenario"
	"dualtopo/internal/spf"
)

// serving is one of the three dtrd workloads: closed-loop clients POSTing a
// cycle of seeded weight vectors to /route or /whatif of one loaded topology.
type serving struct {
	cfg      config
	name     string
	endpoint string // "route" or "whatif"
	load     dtrd.LoadRequest
	spec     scenario.InstanceSpec

	// The independent side: an instance and evaluator built from the same
	// spec beside the daemon, and what each request must answer.
	inst       *scenario.Instance
	ev         *eval.Evaluator
	states     []resilience.State
	routes     []dtrd.RouteRequest
	whatifs    []dtrd.WhatIfRequest
	bodies     [][]byte
	wantRoute  []dtrd.RouteResponse
	wantWhatIf []whatIfWant

	d       *daemon
	clients []*client
	path    string   // /v1/topologies/<id>/<endpoint>
	canon   [][]byte // verified response bytes per request
}

func newServing(cfg config, name string) (*serving, error) {
	w := &serving{cfg: cfg, name: name, endpoint: "route"}
	if name == "whatif-sweep" {
		w.endpoint = "whatif"
	}
	w.load = loadRequest(name, cfg.seed, cfg.clients)
	w.spec = instanceSpec(w.load)
	var err error
	if w.inst, err = w.spec.Build(); err != nil {
		return nil, err
	}
	if w.ev, err = w.inst.Evaluator(); err != nil {
		return nil, err
	}
	w.ev.SetRouteWorkers(routeWorkers)
	arcs := w.inst.G.NumEdges()
	if w.endpoint == "route" {
		w.routes, w.bodies = routeBodies(cfg.seed, arcs)
		for _, req := range w.routes {
			want, err := wantRoute(w.ev, req)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: independent evaluation: %w", name, err)
			}
			w.wantRoute = append(w.wantRoute, want)
		}
		return w, nil
	}
	if w.states, err = resilience.Enumerate(w.inst.G, resilience.Model{}); err != nil {
		return nil, err
	}
	w.whatifs, w.bodies = whatIfBodies(cfg.seed, arcs)
	rng := stream(cfg.seed, streamStates)
	for _, req := range w.whatifs {
		want, err := wantWhatIf(w.ev, req, w.states, rng)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: independent evaluation: %w", name, err)
		}
		w.wantWhatIf = append(w.wantWhatIf, want)
	}
	return w, nil
}

// body picks client c's k-th request: every client walks the whole cycle,
// starting at its own offset so concurrent requests differ.
func (w *serving) body(c, k int) int {
	return (k + c*len(w.bodies)/w.cfg.clients) % len(w.bodies)
}

// verify checks response i in full against the independent evaluator.
func (w *serving) verify(i int, resp []byte) error {
	if w.endpoint == "route" {
		return checkRoute(w.wantRoute[i], resp)
	}
	return checkWhatIf(w.wantWhatIf[i], resp)
}

// setUp starts a daemon, loads the topology over the socket, and warms it:
// every client sends the whole request cycle twice, which fills the session
// pool and every keep-alive connection. Afterwards (off the clock) each
// distinct response is verified against the independent evaluator and kept
// as the bytes all later responses to that request must equal. It returns the
// time the system took, excluding the benchmark's own checking.
func (w *serving) setUp() (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon()
	if err != nil {
		return 0, err
	}
	w.d = d
	w.clients = make([]*client, w.cfg.clients)
	for i := range w.clients {
		w.clients[i] = newClient()
	}
	topo, err := d.loadTopology(w.clients[0], w.load, w.inst.G.NumEdges())
	if err != nil {
		return 0, err
	}
	w.path = topo + "/" + w.endpoint

	n := len(w.bodies)
	seen := make([][][]byte, w.cfg.clients)
	errs := make([]error, w.cfg.clients)
	perClient(w.cfg.clients, func(c int) {
		seen[c] = make([][]byte, n)
		for k := 0; k < 2*n; k++ {
			i := w.body(c, k)
			status, resp, err := w.clients[c].post(d.url+w.path, w.bodies[i])
			switch {
			case err != nil:
				errs[c] = err
			case status != 200:
				errs[c] = fmt.Errorf("warm-up request %d: status %d: %s", i, status, resp)
			case seen[c][i] != nil && !bytes.Equal(seen[c][i], resp):
				errs[c] = fmt.Errorf("warm-up request %d: response changed between identical requests", i)
			}
			if errs[c] != nil {
				return
			}
			seen[c][i] = bytes.Clone(resp)
		}
	})
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("bench: %s: %w", w.name, err)
	}
	w.canon = seen[0]
	for i, resp := range w.canon {
		if err := w.verify(i, resp); err != nil {
			return 0, fmt.Errorf("bench: %s: request %d: %w", w.name, i, err)
		}
		for c := 1; c < w.cfg.clients; c++ {
			if !bytes.Equal(seen[c][i], resp) {
				return 0, fmt.Errorf("bench: %s: request %d: clients got different responses", w.name, i)
			}
		}
	}
	return elapsed, nil
}

func (w *serving) tearDown() {
	for _, c := range w.clients {
		c.close()
	}
	if w.d != nil {
		w.d.stop()
	}
	w.d, w.clients = nil, nil
}

// request is one measured op: a round trip whose response must be the
// verified bytes for that request.
func (w *serving) request(c, k int) (time.Duration, error) {
	i := w.body(c, k)
	start := time.Now()
	status, resp, err := w.clients[c].post(w.d.url+w.path, w.bodies[i])
	lat := time.Since(start)
	switch {
	case err != nil:
		return 0, err
	case status != 200:
		return 0, fmt.Errorf("request %d: status %d: %s", i, status, resp)
	case !bytes.Equal(resp, w.canon[i]):
		return 0, fmt.Errorf("request %d: response differs from the verified answer", i)
	}
	return lat, nil
}

func runServing(cfg config, name string) (*outcome, error) {
	w, err := newServing(cfg, name)
	if err != nil {
		return nil, err
	}
	defer w.tearDown()
	setups, err := setUpRepeatedly(cfg.setups, w.setUp, w.tearDown)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return w.traced()
	}
	res := closedLoop(cfg.clients, cfg.dur, w.request, nil)
	return endToEndOutcome(setups, res), nil
}

// traced is the second run: a fixed count pass, a short untraced phase for
// the tracing-overhead baseline, then the closed loop again with every op
// followed by its replay ladder.
func (w *serving) traced() (*outcome, error) {
	tr := newTracer()
	m := make(map[string]float64)

	// Layer set-up costs, and the handle every replay below the daemon uses.
	h, err := engineProbe(tr, m, w.spec, w.cfg.clients, func(s *engine.Session) error {
		if w.endpoint == "route" {
			_, err := s.EvaluateDTR(w.routes[1].WeightsHigh, w.routes[1].WeightsLow)
			return err
		}
		_, err := s.SweepDTR(w.whatifs[0].WeightsHigh, w.whatifs[0].WeightsLow, w.states)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer h.Close()
	rigs := make([]*rig, w.cfg.clients)
	for i := range rigs {
		rigs[i] = newRig(h)
	}

	// Count pass: the request cycle twice through the handler in memory, on
	// this goroutine, with nothing else running.
	n := 2 * len(w.bodies)
	before := readCounters()
	var respBytes int
	allocs, allocBytes, err := allocProbe(n, func(i int) error {
		err := w.d.serveInMemory(&rigs[0].rec, w.path, w.bodies[i%len(w.bodies)])
		respBytes += rigs[0].rec.body.Len()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %s: count pass: %w", w.name, err)
	}
	after := readCounters()
	spfCounts(m, before, after, n)
	var reqBytes int
	for _, b := range w.bodies {
		reqBytes += len(b)
	}
	m["dtrd.req_bytes"] = float64(reqBytes) / float64(len(w.bodies))
	m["dtrd.resp_bytes"] = float64(respBytes) / float64(n)
	m["dtrd.allocs_per_req"] = allocs
	m["dtrd.alloc_bytes_per_req"] = allocBytes
	m["resilience.states_per_op"] = (after.whatifStates - before.whatifStates) / float64(n)

	untraced := closedLoop(w.cfg.clients, w.cfg.dur*3/10, w.request, nil)

	errs := make([]error, w.cfg.clients)
	res := closedLoop(w.cfg.clients, w.cfg.dur*7/10, func(c, k int) (time.Duration, error) {
		start := time.Now()
		lat, err := w.request(c, k)
		if err == nil && errs[c] == nil {
			op := int32(k*w.cfg.clients + c)
			root := tr.add("http.roundtrip", noSpan, op, start, start.Add(lat), 1)
			errs[c] = w.replay(tr, rigs[c], root, op, w.body(c, k))
		}
		return lat, err
	}, tr.full)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("bench: %s: replay: %w", w.name, err)
	}
	m["engine.lease_timeouts"] = readCounters().leaseTimeouts

	v := tr.view()
	m["trace.overhead_pct"] = traceOverheadPct(reduceWindows(untraced.windows).opsPerS, w.cfg.clients, v.rootDurations())
	spanMetrics(v, m)
	out := &outcome{
		attempted: untraced.attempted + res.attempted,
		failed:    untraced.failed + res.failed,
		err:       errors.Join(untraced.firstErr, res.firstErr),
		samples:   len(v.rootDurations()),
		metrics:   m,
	}
	out.traceFile, err = tr.write(w.cfg.outDir, w.name, w.cfg.prov)
	return out, err
}

// replay walks request i's body down the layers under the socket round trip.
func (w *serving) replay(tr *tracer, r *rig, root, op int32, i int) error {
	body := w.bodies[i]
	var err error
	handler := tr.timed("dtrd.handler", root, op, 1, func() { err = w.d.serveInMemory(&r.rec, w.path, body) })
	if err != nil {
		return err
	}
	if w.endpoint == "route" {
		return w.replayRoute(tr, r, handler, op, i)
	}
	return w.replayWhatIf(tr, r, handler, op, i)
}

func (w *serving) replayRoute(tr *tracer, r *rig, handler, op int32, i int) error {
	var req dtrd.RouteRequest
	var err error
	tr.timed("dtrd.decode", handler, op, 1, func() { err = decodeStrict(w.bodies[i], &req) })
	if err != nil {
		return err
	}
	if err := r.lease(tr, handler, op); err != nil {
		return err
	}
	str := len(req.Weights) > 0
	wH, wL := spf.Weights(req.WeightsHigh), spf.Weights(req.WeightsLow)
	if str {
		wH, wL = req.Weights, req.Weights
	}
	sess, err := r.h.Session(context.Background())
	if err != nil {
		return err
	}
	evaluate := tr.timed("eval.evaluate", handler, op, 1, func() {
		if str {
			_, err = sess.EvaluateSTR(wH)
		} else {
			_, err = sess.EvaluateDTR(wH, wL)
		}
	})
	if rerr := r.h.Release(sess); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	tr.timed("dtrd.encode", handler, op, 1, func() { err = r.encode(w.wantRoute[i]) })
	if err != nil {
		return err
	}
	return r.routeLadder(tr, evaluate, op, wH, wL, str)
}

func (w *serving) replayWhatIf(tr *tracer, r *rig, handler, op int32, i int) error {
	var req dtrd.WhatIfRequest
	var err error
	tr.timed("dtrd.decode", handler, op, 1, func() { err = decodeStrict(w.bodies[i], &req) })
	if err != nil {
		return err
	}
	var states []resilience.State
	tr.timed("resilience.enumerate", handler, op, 1, func() { states, err = resilience.Enumerate(r.g, resilience.Model{}) })
	if err != nil {
		return err
	}
	if err := r.lease(tr, handler, op); err != nil {
		return err
	}
	wH, wL := spf.Weights(req.WeightsHigh), spf.Weights(req.WeightsLow)
	sess, err := r.h.Session(context.Background())
	if err != nil {
		return err
	}
	var sweep *resilience.Sweep
	sweepSpan := tr.timed("resilience.sweep", handler, op, len(states), func() { sweep, err = sess.SweepDTR(wH, wL, states) })
	if rerr := r.h.Release(sess); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	// The response the handler builds from the sweep, encoded as it does.
	resp := dtrd.WhatIfResponse{
		Scheme: "dtr", States: len(states), Survivors: sweep.Survivors, Disconnecting: sweep.Disconnecting,
		BasePhiL: &sweep.Base, Results: make([]dtrd.WhatIfState, len(states)),
	}
	for s := range states {
		resp.Results[s] = dtrd.WhatIfState{Label: states[s].Label, PhiL: &sweep.PhiL[s]}
		if math.IsNaN(sweep.PhiL[s]) {
			resp.Results[s] = dtrd.WhatIfState{Label: states[s].Label, Disconnected: true}
		}
	}
	tr.timed("dtrd.encode", handler, op, 1, func() { err = r.encode(resp) })
	if err != nil {
		return err
	}
	if err := r.pin(wH, wL); err != nil {
		return err
	}
	// The sweeper takes the checkpoint → disable → revert cycle per state; it
	// never repairs by a second Apply.
	at := func(name string) (int32, int32) {
		if name == "spf.apply_repair" {
			return noSpan, -1
		}
		return sweepSpan, op
	}
	for _, st := range states {
		if err := r.failLadder(tr, at, st.Arcs); err != nil {
			return err
		}
	}
	return nil
}
