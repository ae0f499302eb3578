package search

import (
	"encoding/json"
	"io"
	"sync"

	"dualtopo/internal/obs"
)

// TraceEvent is one step of a search trajectory: which routine and
// iteration ran, what kind of move was tried, whether it was accepted into
// the incumbent and whether it improved the best-known solution, the
// incumbent objective after the step, and the cumulative evaluation counts,
// split into candidates and incumbent evaluations. Every field is a
// deterministic function of the search inputs — the same spec and seed
// produce an identical event stream at any Workers or RouteWorkers setting
// — so traces diff cleanly across runs.
type TraceEvent struct {
	// Trajectory identifies which portfolio trajectory emitted the event;
	// 0 for a plain (single-trajectory) search.
	Trajectory int `json:"trajectory"`
	// Routine is Algorithm 1's phase: 1 (FindH), 2 (FindL), 3 (refine).
	Routine int `json:"routine"`
	// Iter is the zero-based iteration within the routine.
	Iter int `json:"iter"`
	// Kind is the move type: "findH", "findL", "refine", or "perturb"
	// (diversification after M stale iterations).
	Kind string `json:"kind"`
	// Accepted reports whether the move replaced the incumbent weights.
	Accepted bool `json:"accepted"`
	// Improved reports whether the step produced a new best-known solution.
	Improved bool `json:"improved"`
	// Candidates is the number of neighbor settings evaluated this step.
	Candidates int `json:"candidates"`
	// Pruned is the number of generated neighbors discarded this step by the
	// routing-invariance bound before any evaluation.
	Pruned int `json:"pruned"`
	// PhiH and PhiL are the incumbent's class costs after the step.
	PhiH float64 `json:"phi_h"`
	PhiL float64 `json:"phi_l"`
	// BestPrimary and BestPhiL are the best-known lexicographic objective
	// after the step; Primary is ΦH for load-based searches, Λ for SLA.
	BestPrimary float64 `json:"best_primary"`
	BestPhiL    float64 `json:"best_phi_l"`
	// DeltaEvals counts the candidates scored so far, each a what-if on a
	// routing state; FullEvals the incumbent evaluations (refreshes and
	// accepts). Cumulative, as DTRResult's are.
	DeltaEvals int64 `json:"delta_evals"`
	FullEvals  int64 `json:"full_evals"`
}

// TraceWriter emits TraceEvents as JSON lines. Encoding is deterministic
// (fixed field order, shortest float form), so a trace is byte-identical
// across runs of the same seeded search. Writes are serialized, so one
// TraceWriter can absorb a whole portfolio's concurrent trajectory streams
// (lines then interleave nondeterministically across trajectories; each
// trajectory's own subsequence stays deterministic).
type TraceWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewTraceWriter returns a JSONL tracer over w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w)}
}

// OnEvent is the Params.OnEvent / PortfolioParams.OnEvent hook: it encodes
// the event, retaining the first write error.
func (t *TraceWriter) OnEvent(ev TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = t.enc.Encode(ev)
	}
}

// Err returns the first error encountered while writing the trace.
func (t *TraceWriter) Err() error { return t.err }

// Search-level telemetry, shared by every search in the process. Handles
// are pre-resolved so the per-iteration updates are pure atomic adds.
var searchMet = struct {
	iterations map[string]*obs.Counter // by DTR routine kind
	accepts    *obs.Counter
	perturbs   *obs.Counter
	evalsDelta *obs.Counter
	evalsFull  *obs.Counter
	// Candidate pipeline accounting: every neighbor built, split by fate —
	// discarded by the routing-invariance bound or actually evaluated.
	candGenerated *obs.Counter
	candPruned    *obs.Counter
	candEvaluated *obs.Counter
	candGuided    *obs.Counter
	pruneRate     *obs.Gauge
}{
	iterations: map[string]*obs.Counter{
		"findH":  obs.Default().CounterVec("search_iterations_total", "DTR search iterations, by move kind.", "kind").With("findH"),
		"findL":  obs.Default().CounterVec("search_iterations_total", "DTR search iterations, by move kind.", "kind").With("findL"),
		"refine": obs.Default().CounterVec("search_iterations_total", "DTR search iterations, by move kind.", "kind").With("refine"),
	},
	accepts:    obs.Default().Counter("search_accepts_total", "DTR search moves accepted into the incumbent."),
	perturbs:   obs.Default().Counter("search_perturbations_total", "DTR search diversification perturbations."),
	evalsDelta: obs.Default().CounterVec("search_evaluations_total", "Objective evaluations, by path.", "path").With("delta"),
	evalsFull:  obs.Default().CounterVec("search_evaluations_total", "Objective evaluations, by path.", "path").With("full"),

	candGenerated: obs.Default().CounterVec("search_candidates_total", "Neighbor candidates, by outcome.", "outcome").With("generated"),
	candPruned:    obs.Default().CounterVec("search_candidates_total", "Neighbor candidates, by outcome.", "outcome").With("pruned"),
	candEvaluated: obs.Default().CounterVec("search_candidates_total", "Neighbor candidates, by outcome.", "outcome").With("evaluated"),
	candGuided:    obs.Default().Counter("search_guided_steps_total", "Search steps that used guided (attribution-ranked) candidate generation."),
	pruneRate:     obs.Default().Gauge("search_prune_rate", "Fraction of generated candidates pruned by the routing-invariance bound (process lifetime)."),
}

// Portfolio-level telemetry (see portfolio.go).
var portfolioMet = struct {
	trajectories *obs.CounterVec
	bestPhiL     *obs.Gauge
}{
	trajectories: obs.Default().CounterVec("portfolio_trajectories_total", "Completed portfolio trajectories, by start strategy.", "strategy"),
	bestPhiL:     obs.Default().Gauge("portfolio_best_phi_l", "Best low-priority cost seen by any portfolio trajectory (running minimum)."),
}
