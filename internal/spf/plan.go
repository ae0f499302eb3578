package spf

import (
	"dualtopo/internal/graph"
	"dualtopo/internal/traffic"
)

// MultiPlan routes one or more traffic matrices over a single weight setting
// (one SPF tree set), retaining per-destination trees for delay queries.
// This is the evaluation core for STR (two classes, one topology) and for
// DTR's high-priority class; LoadRoute routes DTR's low-priority class, whose
// trees nothing reads. A MultiPlan reuses all buffers
// across Route calls and is not safe for concurrent use (Route orchestrates
// its own internal workers when configured; see SetWorkers).
type MultiPlan struct {
	routeCore
}

// NewMultiPlan prepares routing state for the union of destinations active
// in the given matrices. Route must later be called with matrices having the
// same (or a subset of the) active destination sets.
func NewMultiPlan(g *graph.Graph, tms ...*traffic.Matrix) *MultiPlan {
	return &MultiPlan{routeCore: newRouteCore(g, tms, false)}
}

// CloneState returns an independent MultiPlan for the same instance, sharing
// only the immutable destination index (dests, byID). Fresh trees, loads and
// buffers are allocated, so the clone can route concurrently with the
// original. The clone always starts sequential (workers = 1): clones back
// evaluator pools whose goroutines are already the parallelism, so nesting
// SPF workers under them would only oversubscribe. This is what evaluator
// pools use: the O(n²) active-destination scan happens once, not once per
// worker.
func (p *MultiPlan) CloneState() *MultiPlan { return &MultiPlan{p.fresh(len(p.Loads))} }

// Route computes shortest-path DAGs under w and aggregates each matrix's
// demands into the corresponding Loads slice. Routing a subset of the
// matrices builds only the trees they load; Tree returns nil for the rest.
//
// Aggregation is grouped per destination, in ascending destination order:
// each destination's demand is pushed over its tree straight into Loads, and
// every arc receives at most one addition per destination. The sharded route
// (SetWorkers > 1) and the incremental DeltaRouter stage each destination's
// contribution as a support list and fold the lists in the same order, so
// they reproduce this exact floating-point summation sequence — which is
// what makes all three bitwise-equal. Only they retain the per-destination
// support lists; this sequential path stages nothing.
func (p *MultiPlan) Route(w Weights, tms ...*traffic.Matrix) error {
	return p.route(w, tms)
}

// route is Route's body, shared with Plan.
func (c *routeCore) route(w Weights, tms []*traffic.Matrix) error {
	c.tms = append(c.tms[:0], tms...)
	maxW := maxWeight(w) // one scan per weight setting, not per destination
	if err := checkDistRange(c.g.NumNodes(), maxW); err != nil {
		return err
	}
	if nw := c.workerCount(); nw > 1 {
		return c.routeRetained(w, maxW, nw)
	}
	for i := range c.tms {
		clear(c.Loads[i])
	}
	for di, dest := range c.dests {
		t := c.buildTree(c.comp, di, 0, w, maxW)
		for mi, tm := range c.tms {
			if col := tm.Column(dest); col != nil {
				if err := c.comp.AddLoads(t, col, c.Loads[mi]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// LoadRoute routes traffic matrices for their per-arc loads alone: each
// destination's tree is built, in destination order, into its route
// worker's one reused tree, so it keeps a tree per worker instead of one per
// destination, and Tree returns nil. Its loads and its first ErrNoPath are
// bitwise a MultiPlan's over the same matrices at any worker count.
type LoadRoute struct{ routeCore }

// NewLoadRoute prepares a load-only route for the destinations active in
// the given matrices. See NewMultiPlan.
func NewLoadRoute(g *graph.Graph, tms ...*traffic.Matrix) *LoadRoute {
	return &LoadRoute{routeCore: newRouteCore(g, tms, true)}
}

// CloneState returns an independent LoadRoute for the same instance. See
// MultiPlan.CloneState.
func (p *LoadRoute) CloneState() *LoadRoute { return &LoadRoute{p.fresh(len(p.Loads))} }

// Route aggregates each matrix's demands under w into its Loads slice.
func (p *LoadRoute) Route(w Weights, tms ...*traffic.Matrix) error { return p.route(w, tms) }

// Plan routes a single traffic matrix under changing weight settings. It is
// a MultiPlan specialized to one matrix, exposing its loads as a flat slice.
type Plan struct {
	routeCore

	// Loads is the per-arc volume after the last Route call: the core's one
	// load vector, which it shadows.
	Loads []float64
}

// NewPlan prepares routing state for the destinations active in tm.
func NewPlan(g *graph.Graph, tm *traffic.Matrix) *Plan {
	p := &Plan{routeCore: newRouteCore(g, []*traffic.Matrix{tm}, false)}
	p.Loads = p.routeCore.Loads[0]
	return p
}

// Route computes shortest-path DAGs for every active destination under w and
// aggregates tm's demands into p.Loads.
func (p *Plan) Route(w Weights, tm *traffic.Matrix) error {
	return p.route(w, []*traffic.Matrix{tm})
}

// Loads is a convenience wrapper: route tm under w on g and return the
// per-arc load vector.
func Loads(g *graph.Graph, w Weights, tm *traffic.Matrix) ([]float64, error) {
	p := NewPlan(g, tm)
	if err := p.Route(w, tm); err != nil {
		return nil, err
	}
	return p.Loads, nil
}
