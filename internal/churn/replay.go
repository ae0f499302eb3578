package churn

import (
	"errors"
	"fmt"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/spf"
	"dualtopo/internal/traffic"
)

// Options configures a Replayer.
type Options struct {
	// Counterfactual scores every event against the intact baseline
	// instead of accumulating state: checkpoint → apply → score → revert,
	// answering "what would this event do to today's network" per event.
	// Incompatible with convergence mode (which needs the cumulative
	// trajectory) and skips the time-integrated summary masses.
	Counterfactual bool
	// Verify checks the DTR state after every event, before a
	// counterfactual revert, against a from-scratch evaluation of the
	// event's effective weights (eval.Evaluator.Verify) and fails the
	// replay on any disagreement. Debug mode. A verified replay runs on a
	// clone of the evaluator it is handed: the clone's DTR state carries
	// the delta path and its plans the from-scratch evaluations, so the
	// caller's evaluator is left alone and nothing a verified replay
	// routed outlives the Replayer.
	Verify bool
	// RouteWorkers, under Verify, bounds the clone's SPF worker pool
	// (eval.Evaluator.SetRouteWorkers; 0 picks an automatic value): its
	// from-scratch evaluations and its routing state's full routes (at
	// Start, and after an event that disconnected demand). Without Verify
	// it is ignored and the evaluator's own bound holds. Parallel routing is
	// bitwise-identical to sequential, so replay output never depends on it.
	RouteWorkers int
	// Convergence enables OSPF-convergence emulation: each event is also
	// scored through per-router stale-tree windows (see ConvergenceOptions).
	Convergence ConvergenceOptions
}

// Record is the time-series entry emitted for one replayed event. The
// struct is reused by the Replayer's next Step; callers that retain
// records must copy them.
type Record struct {
	// Index is the event's position in the timeline (-1 for the initial
	// steady state emitted by Start).
	Index  int     `json:"i"`
	T      float64 `json:"t"`
	Kind   Kind    `json:"kind"`
	Target string  `json:"target,omitempty"`

	// Disconnected marks events after which some demand had no path; the
	// objective fields below are omitted (their value is meaningless)
	// until a later event restores connectivity.
	Disconnected bool `json:"disconnected,omitempty"`
	// DisconnectedPairs counts high-priority pairs with no path;
	// DisconnectedSample labels up to 8 of them as "src->dst".
	DisconnectedPairs  int      `json:"disconnected_pairs,omitempty"`
	DisconnectedSample []string `json:"disconnected_sample,omitempty"`

	PhiH    float64 `json:"phi_h"`
	PhiL    float64 `json:"phi_l"`
	MaxUtil float64 `json:"max_util"`
	// Lambda/Violations mirror the SLA objective (Eq. 4) for SLA-based
	// instances; ViolationMass is the high-priority demand (Mbps) outside
	// its delay bound — disconnected demand counts in full.
	Lambda        float64 `json:"lambda,omitempty"`
	Violations    int     `json:"violations,omitempty"`
	ViolationMass float64 `json:"violation_mass_mbps"`

	// MovedArcs is the size of the delta apply's moved set (both
	// topologies); FullRoute marks the recovery full re-route after a
	// disconnection window. RerouteNs is wall time for apply + rescore —
	// the only nondeterministic field, excluded from determinism checks.
	MovedArcs int   `json:"moved_arcs"`
	FullRoute bool  `json:"full_route,omitempty"`
	RerouteNs int64 `json:"reroute_ns"`

	// Transient carries convergence-mode scoring; nil otherwise.
	Transient *Transient `json:"transient,omitempty"`
}

// Transient scores one event's OSPF convergence window against the
// instantaneous-convergence ideal.
type Transient struct {
	// WindowMs is the time until the last reachable router converged
	// (flood hops × FloodHopMs + SpfMs).
	WindowMs float64 `json:"window_ms"`
	// LostMbpsSec integrates high-priority demand forwarded into
	// micro-loops or blackholes while routers held stale trees (Mbps·s).
	LostMbpsSec float64 `json:"lost_mbps_sec"`
	// MicroLoops and Blackholes count (pair × interval) walk outcomes;
	// AffectedPairs counts distinct pairs that lost any traffic.
	MicroLoops    int `json:"micro_loops,omitempty"`
	Blackholes    int `json:"blackholes,omitempty"`
	AffectedPairs int `json:"affected_pairs,omitempty"`
}

// Summary aggregates a finished (or interrupted) replay.
type Summary struct {
	Events        int `json:"events"`
	Disconnects   int `json:"disconnected_events"`
	FullRoutes    int `json:"full_routes"`
	WeightChanges int `json:"weight_changes"`
	// ViolationMbpsSec integrates the steady-state SLA-violation mass
	// over the timeline (each event's mass held until the next event,
	// the final state until the horizon). Disconnected windows charge the
	// unreachable high-priority demand.
	ViolationMbpsSec float64 `json:"violation_mbps_sec"`
	// TransientMbpsSec sums convergence-mode stale-tree losses; zero in
	// instantaneous mode, so Total strictly exceeds the instantaneous
	// total whenever stale trees actually lost traffic.
	TransientMbpsSec float64 `json:"transient_mbps_sec"`
	TotalMbpsSec     float64 `json:"total_mbps_sec"`
	MicroLoops       int     `json:"micro_loops,omitempty"`
	Blackholes       int     `json:"blackholes,omitempty"`
	MaxWindowMs      float64 `json:"max_window_ms,omitempty"`
	PeakUtil         float64 `json:"peak_util"`
	// Partial marks a replay cut short (context cancellation): the
	// masses integrate only the events actually replayed.
	Partial bool `json:"partial,omitempty"`
}

// Replayer drives a Timeline through its evaluator's DTR routing state: per
// event it updates the desired-state model (which links and nodes are down,
// which weights are configured), moves the state to the resulting effective
// weights, reads the paper's objectives off it (bitwise-equal to a
// from-scratch evaluation) and emits a Record. What is the replayer's own is
// that model, the time integration and the convergence emulation. The warm
// path — events that neither disconnect nor recover — is allocation-free.
//
// A Replayer is not safe for concurrent use.
type Replayer struct {
	e    *eval.Evaluator // owns the routing state; its plans back Verify
	g    *graph.Graph
	th   *traffic.Matrix
	kind eval.Kind
	opts Options

	st *eval.RoutingState // e's DTR state, resolved by Start
	// Per class: base pins the intact configuration; cfg tracks the
	// configured weights as weight-set events land; buf is the effective
	// weights actually routed (cfg masked to Disabled wherever the link or
	// either endpoint is down).
	base, cfg, buf [2]spf.Weights
	linkDown       []bool
	nodeDown       []bool
	downLinks      int
	downNodes      int

	// High-priority pairs grouped by destination (the evaluator's index).
	hpDests []graph.NodeID
	hpSrcs  [][]graph.NodeID

	// Event-apply scratch (reused): the arcs toggled by the current event.
	evArcs []graph.EdgeID

	// Disconnection scan scratch.
	reach []bool
	queue []graph.NodeID

	conv *convState

	rec      Record
	lastT    float64
	lastMass float64
	started  bool
	sum      Summary
}

// maxDisconnectedSample bounds the pair labels attached to a disconnected
// record.
const maxDisconnectedSample = 8

// NewReplayer builds a replayer that drives e's DTR routing state
// (eval.Evaluator.State, resolved at every Start, so a ResetDelta between
// replays is honoured), pinned to the DTR weight setting (wH, wL). The
// caller must not drive e elsewhere during a replay — from Start to the
// last Step — and must accept that a replay leaves e's DTR state at the last
// replayed routing. Replays on e run one after another may share it: each
// Start moves the state to the intact setting. A caller that wants e left
// alone passes e.Clone(); Options.Verify does so itself.
func NewReplayer(e *eval.Evaluator, wH, wL spf.Weights, opts Options) (*Replayer, error) {
	if opts.Counterfactual && opts.Convergence.Enabled {
		return nil, errors.New("churn: counterfactual replay cannot score convergence transients (needs the cumulative trajectory)")
	}
	if opts.Verify {
		e = e.Clone()
		if opts.RouteWorkers != 1 {
			e.SetRouteWorkers(opts.RouteWorkers)
		}
	}
	g := e.Graph()
	th, _ := e.Matrices()
	if err := wH.Validate(g); err != nil {
		return nil, fmt.Errorf("churn: high-topology weights: %w", err)
	}
	if err := wL.Validate(g); err != nil {
		return nil, fmt.Errorf("churn: low-topology weights: %w", err)
	}
	m := g.NumEdges()
	n := g.NumNodes()
	r := &Replayer{
		e:        e,
		g:        g,
		th:       th,
		kind:     e.Options().Kind,
		opts:     opts,
		base:     [2]spf.Weights{wH.Clone(), wL.Clone()},
		linkDown: make([]bool, m),
		nodeDown: make([]bool, n),
		evArcs:   make([]graph.EdgeID, 0, 16),
		reach:    make([]bool, n),
		queue:    make([]graph.NodeID, 0, n),
	}
	for c := range r.base {
		r.cfg[c] = make(spf.Weights, m)
		r.buf[c] = make(spf.Weights, m)
	}
	r.hpDests, r.hpSrcs = e.HighPriorityByDest()
	if opts.Convergence.Enabled {
		r.conv = newConvState(r)
	}
	return r, nil
}

// Start (re)initializes the replay at t=0 with the intact configuration
// routed and scored, returning the initial steady-state record (Index -1).
// The record is reused by the next Step.
func (r *Replayer) Start() (*Record, error) {
	for c := range r.base {
		copy(r.cfg[c], r.base[c])
		copy(r.buf[c], r.base[c])
	}
	for i := range r.linkDown {
		r.linkDown[i] = false
	}
	for i := range r.nodeDown {
		r.nodeDown[i] = false
	}
	r.downLinks, r.downNodes = 0, 0
	r.st = r.e.State(eval.RouteDTR)
	if _, err := r.st.Move(r.buf); err != nil {
		return nil, fmt.Errorf("churn: intact network does not route: %w", err)
	}
	if r.conv != nil {
		r.conv.snapshotAll(r)
	}
	r.sum = Summary{}
	r.lastT = 0
	r.rec = Record{Index: -1, Kind: "start"}
	r.scoreSteady(&r.rec)
	r.lastMass = r.rec.ViolationMass
	if r.rec.MaxUtil > r.sum.PeakUtil {
		r.sum.PeakUtil = r.rec.MaxUtil
	}
	r.started = true
	return &r.rec, nil
}

// scoreSteady fills rec's objective fields from the routing state, whose
// reductions are bitwise-equal to a from-scratch evaluation. Load-based
// instances report the violation mass (against the default SLA) but no Λ.
func (r *Replayer) scoreSteady(rec *Record) {
	rec.PhiH, rec.PhiL = r.st.PhiH(), r.st.PhiL()
	rec.MaxUtil = r.st.MaxUtilization()
	rec.Lambda, rec.Violations, rec.ViolationMass = r.st.Penalties()
	if r.kind != eval.SLABased {
		rec.Lambda, rec.Violations = 0, 0
	}
}
