package churn

import (
	"errors"
	"fmt"
	"time"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
)

// Step replays one event and returns its record (reused by the next call).
// Events must arrive in non-decreasing time order. Unknown targets and
// malformed payloads fail with the event index and time in the error; a
// disconnecting event is not an error — it yields a Disconnected record
// and the replay recovers when connectivity returns.
func (r *Replayer) Step(ev *Event) (*Record, error) {
	if !r.started {
		return nil, errors.New("churn: Step before Start")
	}
	idx := r.sum.Events
	if ev.T < r.lastT {
		return nil, fmt.Errorf("churn: event %d (%s %s) at t=%gs precedes t=%gs: timeline unsorted",
			idx, ev.Kind, ev.Target, ev.T, r.lastT)
	}
	// Hold the pre-event steady state over the gap since the last event.
	if !r.opts.Counterfactual {
		r.sum.ViolationMbpsSec += r.lastMass * (ev.T - r.lastT)
		r.lastT = ev.T
	}
	rec := &r.rec
	sample := rec.DisconnectedSample[:0]
	*rec = Record{Index: idx, T: ev.T, Kind: ev.Kind, Target: ev.Target, DisconnectedSample: sample}

	node, uv, vu, err := resolveTarget(r.g, ev)
	if err != nil {
		return nil, fmt.Errorf("churn: event %d (t=%gs): %w", idx, ev.T, err)
	}
	if ev.Kind == WeightSet {
		if ev.WH < 0 || ev.WH >= spf.Disabled || ev.WL < 0 || ev.WL >= spf.Disabled || (ev.WH == 0 && ev.WL == 0) {
			return nil, fmt.Errorf("churn: event %d (t=%gs): weight-set %s: payload wh=%d wl=%d out of range",
				idx, ev.T, ev.Target, ev.WH, ev.WL)
		}
	}
	if r.opts.Counterfactual {
		if err := r.st.Checkpoint(); err != nil {
			return nil, fmt.Errorf("churn: event %d: %w", idx, err)
		}
	}
	r.applyDesired(ev, node, uv, vu)

	// Move the routing state to the new effective weights; the clock covers
	// apply + rescore + objective reduction — the data-plane cost of
	// reacting to the event. A disconnected class is left invalid while the
	// surviving one stays maintained through the outage window; steady
	// metrics are meaningless there, so charge the unreachable demand.
	t0 := time.Now()
	hadFull := !r.st.Valid()
	moved, err := r.st.Move(r.buf)
	if err != nil && !errors.Is(err, spf.ErrNoPath) {
		return nil, fmt.Errorf("churn: event %d (%s %s, t=%gs): %w", idx, ev.Kind, ev.Target, ev.T, err)
	}
	ok := err == nil
	rec.MovedArcs = moved
	rec.FullRoute = hadFull
	if ok {
		r.scoreSteady(rec)
	} else {
		rec.Disconnected = true
		rec.ViolationMass = r.disconnectedMass(rec)
	}
	rec.RerouteNs = time.Since(t0).Nanoseconds()
	met.rerouteNs.Observe(float64(rec.RerouteNs))
	kindCounter(ev.Kind).Inc()

	if r.conv != nil {
		r.scoreTransient(rec, ev, node, uv, vu, ok, hadFull)
	}
	if r.opts.Verify {
		if _, err := r.e.Verify(eval.RouteDTR, r.buf); err != nil {
			return nil, fmt.Errorf("churn: verify event %d (%s %s): %w", idx, ev.Kind, ev.Target, err)
		}
	}

	if r.opts.Counterfactual {
		r.st.Revert()
		r.resetDesired(ev, node)
	} else {
		r.lastMass = rec.ViolationMass
	}

	r.sum.Events++
	if rec.Disconnected {
		r.sum.Disconnects++
		met.disconnects.Inc()
	}
	if rec.FullRoute {
		r.sum.FullRoutes++
	}
	if ev.Kind == WeightSet {
		r.sum.WeightChanges++
	}
	if !rec.Disconnected && rec.MaxUtil > r.sum.PeakUtil {
		r.sum.PeakUtil = rec.MaxUtil
	}
	return rec, nil
}

// applyDesired mutates the desired-state model (down flags, configured
// weights) and recomputes the effective weights of the event's arcs. The
// effective weight of an arc is Disabled iff its link is down or either
// endpoint node is down — so overlapping link and node outages compose
// and unwind in any order.
func (r *Replayer) applyDesired(ev *Event, node graph.NodeID, uv, vu graph.EdgeID) {
	r.evArcs = r.evArcs[:0]
	switch ev.Kind {
	case LinkDown, LinkUp:
		down := ev.Kind == LinkDown
		if r.linkDown[uv] != down {
			if down {
				r.downLinks++
			} else {
				r.downLinks--
			}
		}
		r.linkDown[uv], r.linkDown[vu] = down, down
		r.evArcs = append(r.evArcs, uv, vu)
	case NodeDown, NodeUp:
		down := ev.Kind == NodeDown
		if r.nodeDown[node] != down {
			if down {
				r.downNodes++
			} else {
				r.downNodes--
			}
		}
		r.nodeDown[node] = down
		r.evArcs = append(r.evArcs, r.g.Out(node)...)
		r.evArcs = append(r.evArcs, r.g.In(node)...)
	case WeightSet:
		for c, w := range [2]int{ev.WH, ev.WL} {
			if w > 0 {
				r.cfg[c][uv], r.cfg[c][vu] = w, w
			}
		}
		r.evArcs = append(r.evArcs, uv, vu)
	}
	r.maskEventArcs()
}

// maskEventArcs recomputes the effective weights of the current event's arcs
// from the desired state.
func (r *Replayer) maskEventArcs() {
	for _, a := range r.evArcs {
		e := r.g.Edge(a)
		down := r.linkDown[a] || r.nodeDown[e.From] || r.nodeDown[e.To]
		for c := range r.buf {
			r.buf[c][a] = r.cfg[c][a]
			if down {
				r.buf[c][a] = spf.Disabled
			}
		}
	}
}

// resetDesired unwinds applyDesired after a counterfactual event. Every
// counterfactual event starts from the intact network, so the event's arcs
// go back to the base weights, the down flags it set are cleared and the
// down counts return to zero.
func (r *Replayer) resetDesired(ev *Event, node graph.NodeID) {
	if ev.Kind == NodeDown || ev.Kind == NodeUp {
		r.nodeDown[node] = false
	}
	for _, a := range r.evArcs {
		r.linkDown[a] = false
		for c := range r.cfg {
			r.cfg[c][a] = r.base[c][a]
		}
	}
	r.downLinks, r.downNodes = 0, 0
	r.maskEventArcs()
}

// disconnectedMass scans connectivity of every high-priority pair over the
// arcs still enabled in the high topology (reverse BFS per destination),
// filling the record's disconnection fields and returning the unreachable
// high-priority demand — the violation mass charged while the network is
// partitioned. Pure low-priority disconnections (the record is still
// marked Disconnected) can legitimately report zero pairs.
func (r *Replayer) disconnectedMass(rec *Record) float64 {
	mass := 0.0
	for di, dest := range r.hpDests {
		for i := range r.reach {
			r.reach[i] = false
		}
		q := append(r.queue[:0], dest)
		r.reach[dest] = true
		for head := 0; head < len(q); head++ {
			u := q[head]
			for _, a := range r.g.In(u) {
				if r.buf[eval.High][a] == spf.Disabled {
					continue
				}
				if f := r.g.Edge(a).From; !r.reach[f] {
					r.reach[f] = true
					q = append(q, f)
				}
			}
		}
		r.queue = q[:0]
		for _, src := range r.hpSrcs[di] {
			if r.reach[src] {
				continue
			}
			rec.DisconnectedPairs++
			mass += r.th.At(src, dest)
			if len(rec.DisconnectedSample) < maxDisconnectedSample {
				rec.DisconnectedSample = append(rec.DisconnectedSample,
					r.g.Name(src)+"->"+r.g.Name(dest))
			}
		}
	}
	return mass
}

// Run replays the whole timeline: Start, every event through Step (each
// record passed to emit, which may be nil), then Finish. emit errors abort
// the replay.
func (r *Replayer) Run(tl *Timeline, emit func(*Record) error) (*Summary, error) {
	rec, err := r.Start()
	if err != nil {
		return nil, err
	}
	if emit != nil {
		if err := emit(rec); err != nil {
			return nil, err
		}
	}
	for i := range tl.Events {
		rec, err := r.Step(&tl.Events[i])
		if err != nil {
			return nil, err
		}
		if emit != nil {
			if err := emit(rec); err != nil {
				return nil, err
			}
		}
	}
	s := r.Finish(tl.Horizon)
	return &s, nil
}

// Finish closes the integration window at horizon (the steady state after
// the last event is held until then) and returns a copy of the summary —
// by value, so a warm Start/Step/Finish replay cycle stays allocation-free.
// The replayer remains usable: further Steps extend the series, or Start
// begins a fresh replay.
func (r *Replayer) Finish(horizon float64) Summary {
	if !r.opts.Counterfactual && horizon > r.lastT {
		r.sum.ViolationMbpsSec += r.lastMass * (horizon - r.lastT)
		r.lastT = horizon
	}
	r.sum.TotalMbpsSec = r.sum.ViolationMbpsSec + r.sum.TransientMbpsSec
	return r.sum
}
