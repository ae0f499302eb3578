// Package eval computes the paper's objectives for a candidate routing: it
// routes the high-priority matrix, derives residual capacities under strict
// priority queueing (§3), routes the low-priority matrix, and produces the
// solution-level lexicographic cost plus the per-arc metrics the search
// heuristics sort on.
//
// Two evaluation forms mirror how the searches use it:
//
//   - From scratch: EvaluateSTR routes both classes under one weight setting
//     (one SPF pass), EvaluateDTR each class under its own. The evaluator
//     keeps one tree set, its plan's: STR routes both classes on it, DTR the
//     high-priority class, whose trees the Eq. 3–4 pair delays and Attribute
//     read, while the low-priority class goes through a load-only route that
//     keeps no trees.
//   - Incremental: a RoutingState (state.go) keeps one scheme's routing and
//     per-arc metrics current across weight transitions, re-scoring only the
//     arcs whose loads moved. The evaluator owns one state per scheme
//     (State, delta.go), which the searches score candidates and keep their
//     incumbents in, and which failure sweeps and churn replays drive. Its
//     Objective is the state's twin of Result.Objective, the one score read
//     of STR and FindH candidates.
//
// Verify (delta.go) is the one check that the two agree, bitwise and on
// disconnection; every debug Verify mode goes through it.
package eval

import (
	"fmt"
	"math"

	"dualtopo/internal/cost"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
	"dualtopo/internal/traffic"
)

// Kind selects the objective family of §3.
type Kind int

const (
	// LoadBased optimizes A = ⟨ΦH, ΦL⟩ (Eq. 2).
	LoadBased Kind = iota
	// SLABased optimizes S = ⟨Λ, ΦL⟩ (Eq. 5).
	SLABased
)

func (k Kind) String() string {
	switch k {
	case LoadBased:
		return "load"
	case SLABased:
		return "sla"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind is the inverse of Kind.String: "load" or "sla".
func ParseKind(s string) (Kind, error) {
	switch s {
	case "load":
		return LoadBased, nil
	case "sla":
		return SLABased, nil
	default:
		return 0, fmt.Errorf("unknown objective %q (load|sla)", s)
	}
}

// Options configures an Evaluator.
type Options struct {
	Kind Kind
	// SLA parameters; only consulted when Kind == SLABased.
	SLA cost.SLA
	// ExactDelay switches Eq. (3) from the paper's ΦH,l/Cl approximation to
	// the exact M/M/1 term Hl/(Cl−Hl). Default false (paper's choice).
	ExactDelay bool
}

// DefaultOptions returns load-based evaluation.
func DefaultOptions() Options { return Options{Kind: LoadBased, SLA: cost.DefaultSLA()} }

// Result holds every metric of one evaluated routing. Its slices belong to
// the Result, not to the evaluator: a Result returned by an Evaluator method
// is fresh and stays valid indefinitely; one handed to EvaluateSTRInto or
// EvaluateDTRInto is overwritten in place, backing arrays included, so
// whoever passes it in again decides how long the previous numbers live.
type Result struct {
	// PhiH and PhiL are the load-based class costs (Eq. 1 summed over arcs);
	// PhiL is charged against residual capacity.
	PhiH, PhiL float64
	// Lambda is the total SLA penalty (Eq. 4); zero for load-based runs.
	Lambda float64
	// Violations counts high-priority pairs exceeding the SLA bound.
	Violations int
	// ViolationMass is the total high-priority demand (Mbps) carried by
	// those violating pairs — the traffic actually outside its SLA, the
	// quantity churn replay integrates over time; zero for load-based runs.
	ViolationMass float64

	// Per-arc metrics, indexed by EdgeID.
	HLoads, LLoads     []float64
	Residual           []float64
	LinkPhiH, LinkPhiL []float64
	LinkDelay          []float64 // Eq. 3 per-arc delay; SLA runs only

	// PairDelays lists the expected end-to-end delay of every high-priority
	// demand, parallel to Evaluator.HighPriorityPairs(); SLA runs only.
	PairDelays []float64

	kind Kind
}

// Objective returns the solution-level lexicographic cost: ⟨ΦH, ΦL⟩ for
// load-based evaluation, ⟨Λ, ΦL⟩ for SLA-based.
func (r *Result) Objective() cost.Lex {
	if r.kind == SLABased {
		return cost.Lex{Primary: r.Lambda, Secondary: r.PhiL}
	}
	return cost.Lex{Primary: r.PhiH, Secondary: r.PhiL}
}

// LinkCost returns the per-arc lexicographic cost FindH sorts on: ⟨ΦH,l,
// ΦL,l⟩ for load-based runs, ⟨Dl, ΦL,l⟩ for SLA-based (§4).
func (r *Result) LinkCost(id graph.EdgeID) cost.Lex {
	if r.kind == SLABased {
		return cost.Lex{Primary: r.LinkDelay[id], Secondary: r.LinkPhiL[id]}
	}
	return cost.Lex{Primary: r.LinkPhiH[id], Secondary: r.LinkPhiL[id]}
}

// Utilization returns per-arc total utilization (H+L)/C in a fresh slice.
func (r *Result) Utilization(g *graph.Graph) []float64 {
	capacity := g.CSR().Capacity
	u := make([]float64, len(r.HLoads))
	for i := range u {
		u[i] = (r.HLoads[i] + r.LLoads[i]) / capacity[i]
	}
	return u
}

// HUtilization returns per-arc high-priority utilization H/C in a fresh
// slice.
func (r *Result) HUtilization(g *graph.Graph) []float64 {
	capacity := g.CSR().Capacity
	u := make([]float64, len(r.HLoads))
	for i := range u {
		u[i] = r.HLoads[i] / capacity[i]
	}
	return u
}

// AvgUtilization is the mean of Utilization — the paper's network-load
// x-axis ("AD"). It allocates nothing once the graph's CSR snapshot is
// built (any routed graph has one).
func (r *Result) AvgUtilization(g *graph.Graph) float64 {
	capacity := g.CSR().Capacity
	sum := 0.0
	for i := range r.HLoads {
		sum += (r.HLoads[i] + r.LLoads[i]) / capacity[i]
	}
	return sum / float64(len(r.HLoads))
}

// MaxUtilization is the maximum of Utilization (Fig. 9c). It allocates
// nothing once the graph's CSR snapshot is built.
func (r *Result) MaxUtilization(g *graph.Graph) float64 {
	capacity := g.CSR().Capacity
	max := 0.0
	for i, h := range r.HLoads {
		if u := (h + r.LLoads[i]) / capacity[i]; u > max {
			max = u
		}
	}
	return max
}

// Pair identifies one high-priority source-destination demand.
type Pair struct {
	Src, Dst graph.NodeID
}

// instance is the immutable half of a problem: the graph, both matrices, the
// options and everything precomputed from them. Evaluator clones and the
// RoutingStates built on them share one copy.
type instance struct {
	g    *graph.Graph
	th   *traffic.Matrix
	tl   *traffic.Matrix
	opts Options
	// sla scores pair delays: opts.SLA on SLA-based instances, the paper's
	// default on load-based ones, whose violation mass churn replay still
	// tracks.
	sla cost.SLA

	capacity  []float64
	propDelay []float64

	// High-priority demand grouped by destination; pairs lists the same
	// demands flat, in the same (dest, src) order.
	hpDests []graph.NodeID
	hpSrcs  [][]graph.NodeID
	pairs   []Pair
}

// Evaluator evaluates weight settings for one (graph, TH, TL, options)
// problem instance. It is not safe for concurrent use; use Clone to give
// each goroutine its own.
type Evaluator struct {
	*instance

	// plan is over (TH, TL): STR routes both on it, DTR TH alone. Its trees,
	// the only ones the evaluator keeps, are thus the last evaluation's
	// high-priority trees, which finish and Attribute read.
	plan *spf.MultiPlan
	// low routes TL for DTR (and ObjectiveL) for its loads alone.
	low *spf.LoadRoute

	// scratch[0] is Verify's full evaluation, scratch[1] its reading of the
	// state.
	scratch [2]Result

	// states[shape] is the routing state State(shape) returns; built lazily
	// so full-evaluation users pay nothing. Never shared by Clone.
	states [2]*RoutingState
	// routeWorkers is the SetRouteWorkers bound, which the plans and every
	// routing state built over the evaluator route from scratch with.
	routeWorkers int
}

// New builds an Evaluator. The graph must be strongly connected and the
// matrices sized to it.
func New(g *graph.Graph, th, tl *traffic.Matrix, opts Options) (*Evaluator, error) {
	if th.Size() != g.NumNodes() || tl.Size() != g.NumNodes() {
		return nil, fmt.Errorf("eval: matrix size (%d,%d) does not match graph (%d nodes)",
			th.Size(), tl.Size(), g.NumNodes())
	}
	if err := g.RequireStronglyConnected(); err != nil {
		return nil, err
	}
	in := &instance{
		g:    g,
		th:   th,
		tl:   tl,
		opts: opts,
		sla:  opts.SLA,

		capacity:  make([]float64, g.NumEdges()),
		propDelay: make([]float64, g.NumEdges()),
	}
	if opts.Kind != SLABased {
		in.sla = cost.DefaultSLA()
	}
	for _, edge := range g.Edges() {
		in.capacity[edge.ID] = edge.Capacity
		in.propDelay[edge.ID] = edge.Delay
	}
	in.hpDests = th.ActiveDestinations()
	in.hpSrcs = make([][]graph.NodeID, len(in.hpDests))
	for i, d := range in.hpDests {
		for s := 0; s < g.NumNodes(); s++ {
			if th.At(graph.NodeID(s), d) > 0 {
				in.hpSrcs[i] = append(in.hpSrcs[i], graph.NodeID(s))
				in.pairs = append(in.pairs, Pair{graph.NodeID(s), d})
			}
		}
	}
	return &Evaluator{
		instance: in,

		plan: spf.NewMultiPlan(g, th, tl),
		low:  spf.NewLoadRoute(g, tl),

		routeWorkers: 1,
	}, nil
}

// Clone returns an independent Evaluator sharing the immutable precomputed
// instance state — graph, matrices, capacity/delay vectors, and the
// high-priority pair/destination index — while allocating fresh routing
// plans and scratch buffers. Unlike rebuilding via New, it neither re-checks
// strong connectivity nor re-scans the matrices, so pooled search workers
// clone in O(arcs) instead of O(nodes²).
func (e *Evaluator) Clone() *Evaluator {
	return &Evaluator{
		instance: e.instance,

		plan: e.plan.CloneState(),
		low:  e.low.CloneState(),

		routeWorkers: 1,
	}
}

// SetRouteWorkers bounds the SPF worker pool of this evaluator's
// from-scratch routes: its plan's and load-only route's (EvaluateSTR,
// EvaluateDTR and Verify) and those of its routing states' routers (a
// state's first transition and any after a Reset or a disconnection;
// incremental transitions stay sequential). The bound holds
// for the states it has and those State builds later. Destinations are
// sharded across per-worker SPF computers and reduced in destination
// order, so results stay bitwise-identical to sequential routing. n == 1
// restores sequential routing, the default; n == 0 picks a block-aware
// automatic pool size from the instance size and GOMAXPROCS (sequential on
// small instances). Clones start sequential. Callers that evaluate on
// evaluator pools should keep pool members sequential and scope parallel
// routing to single-threaded phases (e.g. a search's full refresh), or the
// pools oversubscribe the machine.
func (e *Evaluator) SetRouteWorkers(n int) {
	e.routeWorkers = n
	e.plan.SetWorkers(n)
	e.low.SetWorkers(n)
	for _, s := range e.states {
		if s != nil {
			s.setRouteWorkers(n)
		}
	}
}

// ResetDelta drops both routing states, forcing the next delta call or sweep
// to re-prime with a full route. Searches call this when they start, so that
// a reused Evaluator cannot leak a previous run's router position into the
// changed-arc contract (which would silently desynchronize delta from full
// evaluation), and again when they return, so that a later failure sweep
// does not keep maintaining the ΦH and delay vectors only FindH reads.
func (e *Evaluator) ResetDelta() { e.states = [2]*RoutingState{} }

// Graph returns the underlying graph.
func (e *Evaluator) Graph() *graph.Graph { return e.g }

// Options returns the evaluation options.
func (e *Evaluator) Options() Options { return e.opts }

// Matrices returns the high- and low-priority traffic matrices.
func (e *Evaluator) Matrices() (th, tl *traffic.Matrix) { return e.th, e.tl }

// HighPriorityPairs lists the SD pairs carrying high-priority traffic, in
// the order Result.PairDelays uses.
func (e *Evaluator) HighPriorityPairs() []Pair { return e.pairs }

// HighPriorityByDest returns the same pairs grouped by destination: srcs[i]
// lists the sources sending to dests[i]. Walking it destination-major visits
// pairs in HighPriorityPairs order. Callers must not modify the slices.
func (e *Evaluator) HighPriorityByDest() (dests []graph.NodeID, srcs [][]graph.NodeID) {
	return e.hpDests, e.hpSrcs
}

// EvaluateSTR evaluates single-topology routing: both classes routed on w.
func (e *Evaluator) EvaluateSTR(w spf.Weights) (*Result, error) {
	r := new(Result)
	if err := e.EvaluateSTRInto(r, w); err != nil {
		return nil, err
	}
	return r, nil
}

// EvaluateSTRInto is EvaluateSTR writing into r, whose slices are reused
// when large enough. On error r is left as it was.
func (e *Evaluator) EvaluateSTRInto(r *Result, w spf.Weights) error {
	if err := e.plan.Route(w, e.th, e.tl); err != nil {
		return err
	}
	e.finish(r, e.plan.Loads[0], e.plan.Loads[1])
	return nil
}

// EvaluateDTR evaluates dual-topology routing: the high-priority class
// follows wH, the low-priority class follows wL.
func (e *Evaluator) EvaluateDTR(wH, wL spf.Weights) (*Result, error) {
	r := new(Result)
	if err := e.EvaluateDTRInto(r, wH, wL); err != nil {
		return nil, err
	}
	return r, nil
}

// EvaluateDTRInto is EvaluateDTR writing into r, whose slices are reused
// when large enough. On error r is left as it was.
func (e *Evaluator) EvaluateDTRInto(r *Result, wH, wL spf.Weights) error {
	if err := e.plan.Route(wH, e.th); err != nil {
		return err
	}
	if err := e.low.Route(wL, e.tl); err != nil {
		return err
	}
	e.finish(r, e.plan.Loads[0], e.low.Loads[0])
	return nil
}

// sized returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func sized(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// finish derives all costs from routed per-arc loads into r, overwriting
// everything r held and reusing its slices. SLA delays follow the plan's
// DAGs, which must be the high-priority class's at hLoads' weights.
func (e *Evaluator) finish(r *Result, hLoads, lLoads []float64) {
	n := e.g.NumEdges()
	linkDelay, pairDelays := r.LinkDelay, r.PairDelays
	*r = Result{
		HLoads:   append(r.HLoads[:0], hLoads...),
		LLoads:   append(r.LLoads[:0], lLoads...),
		Residual: sized(r.Residual, n),
		LinkPhiH: sized(r.LinkPhiH, n),
		LinkPhiL: sized(r.LinkPhiL, n),
		kind:     e.opts.Kind,
	}
	for i := 0; i < n; i++ {
		r.LinkPhiH[i] = cost.Phi(hLoads[i], e.capacity[i])
		r.Residual[i] = cost.Residual(e.capacity[i], hLoads[i])
		r.LinkPhiL[i] = cost.Phi(lLoads[i], r.Residual[i])
		r.PhiH += r.LinkPhiH[i]
		r.PhiL += r.LinkPhiL[i]
	}
	if e.opts.Kind == SLABased {
		r.LinkDelay = sized(linkDelay, n)
		for i := range r.LinkDelay {
			r.LinkDelay[i] = e.linkDelayAt(i, hLoads[i], r.LinkPhiH[i])
		}
		r.PairDelays = sized(pairDelays, len(e.pairs))[:0]
		for i, dest := range e.hpDests {
			xi := e.plan.DelaysTo(dest, r.LinkDelay)
			for _, src := range e.hpSrcs[i] {
				d := xi[src]
				r.PairDelays = append(r.PairDelays, d)
				if pen := e.opts.SLA.PairPenalty(d); pen > 0 {
					r.Lambda += pen
					r.Violations++
					r.ViolationMass += e.th.At(src, dest)
				}
			}
		}
	}
}

// linkDelayAt computes the Eq. (3) delay of one arc from its high-priority
// load and per-arc ΦH — the unit a RoutingState re-scores per moved arc.
func (e *instance) linkDelayAt(i int, hLoad, linkPhiH float64) float64 {
	if e.opts.ExactDelay {
		d := e.sla.LinkDelayExact(hLoad, e.capacity[i], e.propDelay[i])
		if !math.IsInf(d, 1) {
			return d
		}
		// Keep the search objective finite on overloaded links by falling
		// back to the (always finite) approximation.
	}
	return e.sla.LinkDelayApprox(linkPhiH, e.capacity[i], e.propDelay[i])
}

// ObjectiveL routes only the low-priority class under wL and returns its ΦL
// against the given residual capacities. Kept for bench/; the next benchmark
// change deletes it.
func (e *Evaluator) ObjectiveL(wL spf.Weights, residual []float64) (float64, error) {
	if err := e.low.Route(wL, e.tl); err != nil {
		return 0, err
	}
	phiL := 0.0
	for i, l := range e.low.Loads[0] {
		phiL += cost.Phi(l, residual[i])
	}
	return phiL, nil
}
