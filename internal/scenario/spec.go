package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/resilience"
	"dualtopo/internal/search"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// Spec is a declarative what-if campaign: one topology/traffic/objective
// configuration swept over a set of network loads, each load point averaged
// over independent trials. The zero values of optional fields resolve to the
// paper's §5.1 settings via Normalize.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Topology  TopologySpec  `json:"topology"`
	Traffic   TrafficSpec   `json:"traffic"`
	Objective ObjectiveSpec `json:"objective"`

	// Loads is the target average-utilization sweep; empty means [0.6].
	Loads []float64 `json:"loads,omitempty"`
	// Trials is the number of independently seeded repetitions per load
	// point; 0 means 1.
	Trials int `json:"trials,omitempty"`
	// Seed is the campaign root seed; every trial derives its own sub-seed
	// from it (see SubSeed).
	Seed uint64 `json:"seed,omitempty"`

	Budget   BudgetSpec  `json:"budget,omitempty"`
	Failures FailureSpec `json:"failures,omitempty"`
	// Churn, when non-nil, replays a generated churn timeline against every
	// trial's final DTR weights (see ChurnSpec).
	Churn *ChurnSpec `json:"churn,omitempty"`
}

// TopologySpec selects the topology family and its parameters.
type TopologySpec struct {
	// Family names any registered topology generator (topo.Families()):
	// the paper's "random", "powerlaw" and "isp", plus "waxman", "ring",
	// "grid", "torus", "hier" and "import".
	Family string `json:"family"`
	// Nodes, Links and CapacityMbps are legacy shorthand for the matching
	// Params fields; Params wins where both are set.
	Nodes int `json:"nodes,omitempty"`
	Links int `json:"links,omitempty"`
	// CapacityMbps is the per-arc capacity; 0 means the paper's 500.
	CapacityMbps float64 `json:"capacity_mbps,omitempty"`
	// Params is the family's full parameter set (Waxman alpha/beta,
	// lattice rows/cols, hier PoP fan-out, import path, delay model, ...).
	// Unset fields resolve to the family's registered defaults.
	Params *topo.Params `json:"params,omitempty"`
}

// params folds the legacy shorthand fields into the explicit params object
// (explicit wins); family defaults are merged later by topo.Resolve.
func (t TopologySpec) params() topo.Params {
	var p topo.Params
	if t.Params != nil {
		p = *t.Params
	}
	return p.WithSizes(t.Nodes, t.Links, t.CapacityMbps)
}

// TrafficSpec selects the traffic matrices of both classes. The low-priority
// class always follows the gravity model (Eq. 6-7); HighModel picks the
// high-priority overlay.
type TrafficSpec struct {
	// HighModel names any registered high-priority model
	// (traffic.Models()): the paper's "random", "sink-uniform" and
	// "sink-local", plus "gravity", "hotspot" and "uniform".
	HighModel string `json:"high_model"`
	// F is the high-priority volume fraction; 0 means 30%.
	F float64 `json:"f,omitempty"`
	// K is the high-priority SD-pair density; 0 means 10%.
	K float64 `json:"k,omitempty"`
	// Sinks is the sink-model sink count; 0 means 3.
	Sinks int `json:"sinks,omitempty"`
	// Params is the model's full parameter set (hotspot fraction/boost,
	// ...). Unset fields resolve to the model's registered defaults; the
	// flat F/K/Sinks shorthand fills its zero values.
	Params *traffic.Params `json:"params,omitempty"`
}

// params folds the legacy shorthand fields into the explicit params object
// (explicit wins); model defaults are merged later by traffic.ResolveModel.
func (t TrafficSpec) params() traffic.Params {
	var p traffic.Params
	if t.Params != nil {
		p = *t.Params
	}
	return p.WithShorthand(t.F, t.K, t.Sinks)
}

// ObjectiveSpec selects the cost function family of §3.
type ObjectiveSpec struct {
	// Kind is "load" (Fortz-Thorup with residual capacities) or "sla"
	// (delay-bound penalties).
	Kind string `json:"kind"`
	// ThetaMs is the SLA delay bound; 0 means 25 ms. Ignored for "load".
	ThetaMs float64 `json:"theta_ms,omitempty"`
}

// BudgetSpec scales the search effort spent on every trial.
type BudgetSpec struct {
	// Tier is "smoke", "tiny", "small" or "paper" (search.BudgetByName);
	// empty means "tiny".
	Tier string `json:"tier,omitempty"`
	// DTRIters, DTRRefine and STRIters override the tier's N, K and
	// Iterations budgets when positive.
	DTRIters  int `json:"dtr_iters,omitempty"`
	DTRRefine int `json:"dtr_refine,omitempty"`
	STRIters  int `json:"str_iters,omitempty"`
	// SearchWorkers overrides the tier's per-search parallelism when
	// positive. Campaign-level parallelism (Options.Workers) composes with
	// this; tiers default to single-threaded searches so that trials, not
	// neighbor evaluations, saturate the machine.
	SearchWorkers int `json:"search_workers,omitempty"`
}

// FailureSpec enables post-optimization robustness evaluation: each trial's
// final weight settings are swept over a failure-state family (weights
// unchanged — OSPF reconverges on the surviving arcs) and the low-priority
// cost degradation of both schemes is recorded. It can additionally make
// the DTR search itself failure-aware.
type FailureSpec struct {
	// Kind selects the failure model: "link" (Count simultaneous link
	// failures), "node", or "srlg". Empty disables failure evaluation.
	Kind string `json:"kind,omitempty"`
	// Count is the number of simultaneously failed links for the "link"
	// kind: 1 or 2. 0 means 1.
	Count int `json:"count,omitempty"`
	// SRLGs lists shared-risk groups for the "srlg" kind, as indexes into
	// the topology's canonical link order.
	SRLGs [][]int `json:"srlgs,omitempty"`
	// Sample, when positive, evaluates a seeded uniform sample of that many
	// states per trial instead of the full family. 0 means every state.
	Sample int `json:"sample,omitempty"`
	// Seed pins the sampling seed; 0 derives a per-trial seed, so different
	// trials sample independently while re-runs stay deterministic.
	Seed uint64 `json:"seed,omitempty"`
	// Robust makes the DTR search failure-aware: candidates are scored on
	// nominal ΦL plus mean and worst-case ΦL over the trial's failure set
	// (capped at RobustDefaultSample states when Sample is 0).
	Robust bool `json:"robust,omitempty"`
}

// RobustDefaultSample bounds the per-candidate sweep cost of robust
// searches when the spec does not choose a sample size itself. One-off
// tools (cmd/dtrfail) reuse it so ad-hoc robust runs match campaign
// behavior.
const RobustDefaultSample = 8

// Robust-search composite weights: candidate score = ΦL + α·mean + β·worst
// over the failure set.
const (
	robustAlpha = 0.5
	robustBeta  = 0.5
)

// Enabled reports whether any failure evaluation is configured.
func (f FailureSpec) Enabled() bool { return f.Kind != "" }

// Model derives the trial-level resilience model, deriving a per-trial
// sampling seed when none is pinned.
func (f FailureSpec) Model(trialSeed uint64) resilience.Model {
	seed := f.Seed
	if seed == 0 {
		seed = splitmix64(trialSeed ^ 0x6661696c75726573) // "failures"
	}
	return resilience.Model{
		Kind:   f.Kind,
		Count:  f.Count,
		SRLGs:  f.SRLGs,
		Sample: f.Sample,
		Seed:   seed,
	}.Normalize()
}

// robustModel is the failure set the DTR search scores candidates on: the
// trial model, sample-capped so sweep cost per candidate stays bounded.
func (f FailureSpec) robustModel(trialSeed uint64) resilience.Model {
	m := f.Model(trialSeed)
	if m.Sample == 0 {
		m.Sample = RobustDefaultSample
	}
	return m
}

// Normalize returns a copy of s with every optional field resolved to its
// default, so that Validate, WorkList and Run all see the same effective
// campaign.
func (s Spec) Normalize() Spec {
	if s.Topology.Family == "" {
		s.Topology.Family = instance.TopoRandom
	}
	if s.Traffic.HighModel == "" {
		s.Traffic.HighModel = instance.HPRandom
	}
	if s.Objective.Kind == "" {
		s.Objective.Kind = "load"
	}
	if len(s.Loads) == 0 {
		s.Loads = []float64{0.6}
	}
	if s.Trials == 0 {
		s.Trials = 1
	}
	if s.Budget.Tier == "" {
		s.Budget.Tier = "tiny"
	}
	return s
}

// Validate reports the first invalid field of the normalized spec.
func (s Spec) Validate() error {
	s = s.Normalize()
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if s.Topology.Nodes < 0 || s.Topology.Links < 0 || s.Topology.CapacityMbps < 0 {
		return fmt.Errorf("scenario: negative topology size or capacity")
	}
	// Family names and parameters validate against the generator
	// registries, so error messages enumerate what is actually registered.
	if _, _, err := topo.Resolve(s.Topology.Family, s.Topology.params()); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if _, _, err := traffic.ResolveModel(s.Traffic.HighModel, s.Traffic.params()); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if _, err := eval.ParseKind(s.Objective.Kind); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.Objective.ThetaMs < 0 {
		return fmt.Errorf("scenario: negative SLA bound %g ms", s.Objective.ThetaMs)
	}
	for i, load := range s.Loads {
		if load <= 0 || load > 2 {
			return fmt.Errorf("scenario: load point %d is %g, want (0,2]", i, load)
		}
	}
	if s.Trials < 1 || s.Trials > 10000 {
		return fmt.Errorf("scenario: %d trials outside [1,10000]", s.Trials)
	}
	if _, err := search.BudgetByName(s.Budget.Tier); err != nil {
		return err
	}
	if s.Budget.DTRIters < 0 || s.Budget.DTRRefine < 0 || s.Budget.STRIters < 0 || s.Budget.SearchWorkers < 0 {
		return fmt.Errorf("scenario: negative budget override")
	}
	if s.Failures.Sample < 0 {
		return fmt.Errorf("scenario: negative failure sample cap")
	}
	if s.Failures.Enabled() {
		if err := s.Failures.Model(0).Validate(); err != nil {
			return err
		}
	} else if s.Failures.Robust {
		return fmt.Errorf("scenario: robust search requires a failure model (set kind)")
	}
	if s.Churn != nil {
		if err := s.Churn.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ResolveBudget materializes the spec's budget tier plus overrides.
func (s Spec) ResolveBudget() (search.Budget, error) {
	s = s.Normalize()
	b, err := search.BudgetByName(s.Budget.Tier)
	if err != nil {
		return search.Budget{}, err
	}
	if s.Budget.DTRIters > 0 {
		b.DTR.N = s.Budget.DTRIters
	}
	if s.Budget.DTRRefine > 0 {
		b.DTR.K = s.Budget.DTRRefine
	}
	if s.Budget.STRIters > 0 {
		b.STR.Iterations = s.Budget.STRIters
	}
	if s.Budget.SearchWorkers > 0 {
		b.DTR.Workers = s.Budget.SearchWorkers
		b.STR.Workers = s.Budget.SearchWorkers
	}
	return b, nil
}

// WorkItem is one trial of the expanded campaign.
type WorkItem struct {
	// Index is the item's position in the deterministic work-list order
	// (point-major, then trial).
	Index int
	// Point indexes Spec.Loads; Trial counts repetitions within the point.
	Point, Trial int
	// Spec is the fully derived problem instance, including its sub-seed.
	Spec instance.Spec
}

// WorkList expands the normalized spec into its deterministic work-list:
// one item per (load point, trial), each with a SplitMix64-derived sub-seed.
func (s Spec) WorkList() []WorkItem {
	s = s.Normalize()
	kind, _ := eval.ParseKind(s.Objective.Kind) // Validate rejects unknown kinds
	topoParams := s.Topology.params()
	hpParams := s.Traffic.params()
	items := make([]WorkItem, 0, len(s.Loads)*s.Trials)
	for p, load := range s.Loads {
		for t := 0; t < s.Trials; t++ {
			seed := SubSeed(s.Seed, p, t)
			is := instance.Spec{
				Topology:   s.Topology.Family,
				TopoParams: &topoParams,
				Kind:       kind,
				ThetaMs:    s.Objective.ThetaMs,
				HPModel:    s.Traffic.HighModel,
				HPParams:   &hpParams,
				TargetUtil: load,
				Seed:       seed,
			}
			if s.Failures.Enabled() && s.Failures.Robust {
				m := s.Failures.robustModel(seed)
				is.Robust = &m
			}
			items = append(items, WorkItem{
				Index: len(items),
				Point: p,
				Trial: t,
				Spec:  is,
			})
		}
	}
	return items
}

// Load decodes one spec from JSON, rejecting unknown fields so typos in
// hand-written campaign files fail loudly, and anything but whitespace after
// the spec, so a second or truncated value cannot hide behind a valid one.
func Load(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("scenario: decode spec: data after the spec")
	}
	return s, nil
}

// LoadFile decodes one spec from a JSON file.
func LoadFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	s, err := Load(bytes.NewReader(data))
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
