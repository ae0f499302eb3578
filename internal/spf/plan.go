package spf

import (
	"dualtopo/internal/graph"
	"dualtopo/internal/traffic"
)

// MultiPlan routes one or more traffic matrices over a single weight setting
// (one SPF tree set), retaining per-destination trees for delay queries.
// This is the evaluation core for both STR (two classes, one topology) and
// each DTR class (one class per topology). A MultiPlan reuses all buffers
// across Route calls and is not safe for concurrent use (Route orchestrates
// its own internal workers when configured; see SetWorkers).
type MultiPlan struct {
	routeCore
}

// NewMultiPlan prepares routing state for the union of destinations active
// in the given matrices. Route must later be called with matrices having the
// same (or a subset of the) active destination sets.
func NewMultiPlan(g *graph.Graph, tms ...*traffic.Matrix) *MultiPlan {
	return &MultiPlan{routeCore: newRouteCore(g, tms)}
}

// CloneState returns an independent MultiPlan for the same instance, sharing
// only the immutable destination index (dests, byID). Fresh trees, loads and
// buffers are allocated, so the clone can route concurrently with the
// original. The clone always starts sequential (workers = 1): clones back
// evaluator pools whose goroutines are already the parallelism, so nesting
// SPF workers under them would only oversubscribe. This is what evaluator
// pools use: the O(n²) active-destination scan happens once, not once per
// worker.
func (p *MultiPlan) CloneState() *MultiPlan {
	c := &MultiPlan{routeCore{g: p.g, dests: p.dests, byID: p.byID}}
	c.allocate(len(p.Loads))
	return c
}

// Route computes shortest-path DAGs under w and aggregates each matrix's
// demands into the corresponding Loads slice.
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
		c.comp.tree(dest, w, &c.trees[di], maxW)
		for mi, tm := range c.tms {
			if col := tm.Column(dest); col != nil {
				if err := c.comp.AddLoads(&c.trees[di], col, c.Loads[mi]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

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
	p := &Plan{routeCore: newRouteCore(g, []*traffic.Matrix{tm})}
	p.Loads = p.routeCore.Loads[0]
	return p
}

// CloneState returns an independent Plan for the same instance, sharing only
// the immutable destination index. See MultiPlan.CloneState.
func (p *Plan) CloneState() *Plan {
	c := &Plan{routeCore: routeCore{g: p.g, dests: p.dests, byID: p.byID}}
	c.allocate(1)
	c.Loads = c.routeCore.Loads[0]
	return c
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
