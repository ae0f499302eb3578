// Package dtrd implements the routing-as-a-service daemon: a long-lived
// HTTP+JSON server over the internal/engine session/handle API. Topologies
// are loaded once and kept hot; route evaluations, failure what-ifs and
// bounded-budget weight searches run against pooled engine sessions, so a
// request costs an evaluation — never a construction.
//
// The versioned JSON surface lives under /v1:
//
//	POST   /v1/topologies            load or generate a topology
//	GET    /v1/topologies            list loaded topologies
//	GET    /v1/topologies/{id}       describe one topology
//	DELETE /v1/topologies/{id}       unload (in-flight requests finish)
//	POST   /v1/topologies/{id}/route evaluate STR or DTR weights
//	POST   /v1/topologies/{id}/whatif sweep or compare under failures
//	POST   /v1/topologies/{id}/search start an async weight search
//	GET    /v1/jobs                  list search jobs
//	GET    /v1/jobs/{id}             poll one job
//	GET    /healthz                  liveness (503 while draining)
//
// plus the standard telemetry surface (/metrics, /metrics.json,
// /manifest.json, /debug/pprof/*) mounted on the same listener.
//
// Responses carry no timestamps and IDs are sequential ("t1", "j1", ...),
// so equal requests against a fresh server produce byte-equal responses —
// the property the golden tests pin.
package dtrd

import "dualtopo/internal/spf"

// Error is the uniform failure envelope: every non-2xx response is
// {"error":{"code":..., "message":...}}.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse wraps Error for transport.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// Error codes.
const (
	CodeBadRequest    = "bad_request"    // malformed JSON, invalid parameters (400)
	CodeNotFound      = "not_found"      // unknown topology or job ID (404)
	CodeUnroutable    = "unroutable"     // evaluation failed on this instance (422)
	CodeLimitExceeded = "limit_exceeded" // request body over the endpoint's cap (413), or a what-if failure family over its cap (422)
	CodePoolExhausted = "pool_exhausted" // every session leased past the timeout (503)
	CodeDraining      = "draining"       // server is shutting down (503)
	CodeInternal      = "internal"       // unexpected failure (500)
)

// LoadRequest describes an instance to build through internal/instance —
// the same parameter set dtropt/dtrfail accept, so a daemon
// load is bitwise the instance the equivalent batch invocation builds.
type LoadRequest struct {
	// Name is an optional caller label echoed in responses.
	Name string `json:"name,omitempty"`
	// Topology names the generator family (random, powerlaw, isp, waxman,
	// ring, grid, torus, hier); empty means random.
	Topology string `json:"topology,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Links    int    `json:"links,omitempty"`
	// CapacityMbps is the per-arc capacity; 0 means the paper's 500.
	CapacityMbps float64 `json:"capacity_mbps,omitempty"`
	// Objective selects the evaluation kind: "load" (default) or "sla".
	Objective string  `json:"objective,omitempty"`
	ThetaMs   float64 `json:"theta_ms,omitempty"`
	// F and K are the paper's high-priority volume fraction and SD-pair
	// density.
	F       float64 `json:"f,omitempty"`
	K       float64 `json:"k,omitempty"`
	HPModel string  `json:"hp_model,omitempty"`
	Sinks   int     `json:"sinks,omitempty"`
	LPSinks int     `json:"lp_sinks,omitempty"`
	// TargetUtil scales traffic to this average link utilization (default
	// 0.6).
	TargetUtil float64 `json:"target_util,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	// PoolSize bounds concurrently leased sessions for this topology; 0
	// means the server default (GOMAXPROCS).
	PoolSize int `json:"pool_size,omitempty"`
}

// TopologyInfo describes a loaded topology.
type TopologyInfo struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	Topology  string `json:"topology"`
	Nodes     int    `json:"nodes"`
	Arcs      int    `json:"arcs"`
	Objective string `json:"objective"`
	Seed      uint64 `json:"seed"`
	PoolSize  int    `json:"pool_size"`
}

// TopologyList is the GET /v1/topologies response.
type TopologyList struct {
	Topologies []TopologyInfo `json:"topologies"`
}

// RouteRequest evaluates one weight setting. Exactly one form is valid:
// weights (STR — one topology carries both classes) or weights_high +
// weights_low (DTR). Weights are per-arc, positive, in arc-ID order; use
// 2147483647 (spf.Disabled) to exclude an arc.
type RouteRequest struct {
	Weights     spf.Weights `json:"weights,omitempty"`
	WeightsHigh spf.Weights `json:"weights_high,omitempty"`
	WeightsLow  spf.Weights `json:"weights_low,omitempty"`
}

// RouteResponse reports the evaluation of one weight setting.
type RouteResponse struct {
	Scheme string `json:"scheme"` // "str" or "dtr"
	// PhiH and PhiL are the class costs; Lambda and Violations are the SLA
	// penalty and violating-pair count (zero for load-based topologies).
	PhiH       float64 `json:"phi_h"`
	PhiL       float64 `json:"phi_l"`
	Lambda     float64 `json:"lambda"`
	Violations int     `json:"violations"`
	// AvgUtilization and MaxUtilization summarize per-arc (H+L)/C.
	AvgUtilization float64 `json:"avg_utilization"`
	MaxUtilization float64 `json:"max_utilization"`
}

// FailureModel selects the failure states a what-if sweeps: every
// single-link failure by default; "node", "srlg" and dual-link ("link",
// count 2) models as in the resilience package, with optional seeded
// sampling.
type FailureModel struct {
	Kind   string  `json:"kind,omitempty"`  // link | node | srlg
	Count  int     `json:"count,omitempty"` // links down per state (link kind)
	SRLGs  [][]int `json:"srlgs,omitempty"`
	Sample int     `json:"sample,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
}

// WhatIfRequest sweeps failure states under a routing scheme via the
// engine's checkpoint → delta → revert path. Weight forms:
//
//   - weights only: STR sweep
//   - weights_high + weights_low: DTR sweep
//   - all three: STR-vs-DTR comparison over the same states
type WhatIfRequest struct {
	Weights     spf.Weights   `json:"weights,omitempty"`
	WeightsHigh spf.Weights   `json:"weights_high,omitempty"`
	WeightsLow  spf.Weights   `json:"weights_low,omitempty"`
	Failures    *FailureModel `json:"failures,omitempty"`
}

// WhatIfState is one swept failure state. PhiL is absent for states that
// disconnect some demand.
type WhatIfState struct {
	Label        string   `json:"label"`
	PhiL         *float64 `json:"phi_l,omitempty"`
	Disconnected bool     `json:"disconnected,omitempty"`
}

// WhatIfCompare pairs the two schemes' per-state degradation factors
// (ΦL(state)/ΦL(intact)) over the states both survive.
type WhatIfCompare struct {
	Labels  []string  `json:"labels"`
	STR     []float64 `json:"str"`
	DTR     []float64 `json:"dtr"`
	BaseSTR float64   `json:"base_str_phi_l"`
	BaseDTR float64   `json:"base_dtr_phi_l"`
}

// WhatIfResponse reports a failure sweep or comparison.
type WhatIfResponse struct {
	Scheme        string         `json:"scheme"` // "str", "dtr" or "compare"
	States        int            `json:"states"`
	Survivors     int            `json:"survivors"`
	Disconnecting int            `json:"disconnecting"`
	BasePhiL      *float64       `json:"base_phi_l,omitempty"` // sweep forms
	Results       []WhatIfState  `json:"results,omitempty"`    // sweep forms
	Compare       *WhatIfCompare `json:"compare,omitempty"`    // compare form
}

// SearchRequest starts an asynchronous weight search: the STR baseline
// followed by the paper's DTR heuristic warm-started from it, exactly the
// dtropt pipeline (STR seed = seed, DTR seed = seed+1).
type SearchRequest struct {
	// Budget names a search.BudgetByName tier: smoke, tiny, small or
	// paper. Default tiny.
	Budget string `json:"budget,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Guide biases DTR moves toward cost-attributed arcs; Prune skips
	// provably routing-invariant candidates.
	Guide float64 `json:"guide,omitempty"`
	Prune bool    `json:"prune,omitempty"`
}

// SearchResult is the completed search outcome.
type SearchResult struct {
	STRWeights  []int   `json:"str_weights"`
	WH          []int   `json:"dtr_high_weights"`
	WL          []int   `json:"dtr_low_weights"`
	STRPhiH     float64 `json:"str_phi_h"`
	STRPhiL     float64 `json:"str_phi_l"`
	DTRPhiH     float64 `json:"dtr_phi_h"`
	DTRPhiL     float64 `json:"dtr_phi_l"`
	Evaluations int64   `json:"evaluations"`
}

// JobInfo is the async-job envelope returned by POST .../search (202) and
// GET /v1/jobs/{id}.
type JobInfo struct {
	ID       string        `json:"id"`
	Topology string        `json:"topology"`
	Status   string        `json:"status"` // running | done | failed
	Result   *SearchResult `json:"result,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// JobList is the GET /v1/jobs response.
type JobList struct {
	Jobs []JobInfo `json:"jobs"`
}
