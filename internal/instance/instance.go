// Package instance builds the problem instances of the paper's §5.1: a
// topology, a gravity low-priority matrix and a high-priority matrix, both
// scaled to a target average link utilization under hop-count routing, plus
// the evaluator options of the chosen objective.
//
// It is the one home of that recipe. The scenario campaigns, the experiment
// runners, the serving engine and the batch CLIs all build through Spec, so
// the same spec and seed give the same instance everywhere.
package instance

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dualtopo/internal/cost"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/resilience"
	"dualtopo/internal/spf"
	"dualtopo/internal/stats"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// Topology family names accepted by Spec. Any name registered in
// internal/topo works (topo.Families() enumerates them); these constants
// cover the bundled families.
const (
	TopoRandom   = "random"
	TopoPowerLaw = "powerlaw"
	TopoISP      = "isp"
	TopoWaxman   = "waxman"
	TopoRing     = "ring"
	TopoGrid     = "grid"
	TopoTorus    = "torus"
	TopoHier     = "hier"
	TopoImport   = "import"
)

// High-priority traffic model names accepted by Spec. Any name registered in
// internal/traffic works (traffic.Models() enumerates them); these constants
// cover the bundled models.
const (
	HPRandom      = "random"
	HPSinkUniform = "sink-uniform"
	HPSinkLocal   = "sink-local"
	HPGravity     = "gravity"
	HPHotspot     = "hotspot"
	HPUniform     = "uniform"
)

// Spec describes one problem instance, mirroring the evaluation settings of
// the paper's §5.1. A scenario campaign expands into one Spec per (load
// point, trial).
type Spec struct {
	Topology     string
	Nodes, Links int     // legacy shorthand for TopoParams.Nodes/Links
	Capacity     float64 // per-arc capacity in Mbps; 0 means the paper's 500
	Kind         eval.Kind
	ThetaMs      float64 // SLA bound; 0 means the paper default (25 ms)
	F            float64 // high-priority volume fraction (f)
	K            float64 // high-priority SD-pair density (k)
	HPModel      string
	Sinks        int // sink-model sink count; 0 means 3
	TargetUtil   float64
	Seed         uint64
	// TopoParams, when non-nil, carries the topology family's full
	// parameter set (Waxman alpha/beta, lattice rows/cols, import path,
	// delay model, ...). The flat Nodes/Links/Capacity shorthand fills its
	// zero values; family defaults fill the rest.
	TopoParams *topo.Params
	// HPParams, when non-nil, carries the high-priority model's full
	// parameter set; the flat F/K/Sinks shorthand fills its zero values.
	HPParams *traffic.Params
	// LPSinks, when positive, replaces the dense n×n gravity low-priority
	// matrix with a sink-limited one (traffic.GravitySinks): every source
	// sends to LPSinks destinations spread evenly over the ID space. Dense
	// gravity is O(n²) memory and infeasible past a few thousand nodes;
	// sink-limited instances stay O(LPSinks·n). 0 keeps dense gravity.
	LPSinks int
	// Robust, when non-nil, makes the DTR search failure-aware: candidates
	// are scored on the nominal objective plus mean and worst-case ΦL over
	// the model's (sampled, seeded) failure set.
	Robust *resilience.Model
}

// Instance is a fully built problem: topology, matrices, evaluator options.
type Instance struct {
	G      *graph.Graph
	TH, TL *traffic.Matrix
	Opts   eval.Options
}

// paperDefaults fills unset spec fields with §5.1 values. Sizing defaults
// apply only to the paper's synthetic families; every other family gets its
// sizes from the topo registry defaults, where a flat Nodes/Links shorthand
// may not even be meaningful (lattices, import).
func (s *Spec) paperDefaults() {
	if s.Topology == "" {
		s.Topology = TopoRandom
	}
	switch s.Topology {
	case TopoRandom, TopoPowerLaw:
		if s.Nodes == 0 {
			s.Nodes = 30
		}
		if s.Links == 0 {
			if s.Topology == TopoPowerLaw {
				s.Links = 81 // 162 arcs
			} else {
				s.Links = 75 // 150 arcs
			}
		}
	}
	if s.Capacity == 0 {
		s.Capacity = topo.DefaultCapacity
	}
	if s.ThetaMs == 0 {
		s.ThetaMs = 25
	}
	if s.F == 0 {
		s.F = 0.30
	}
	if s.K == 0 {
		s.K = 0.10
	}
	if s.HPModel == "" {
		s.HPModel = HPRandom
	}
	if s.Sinks == 0 {
		s.Sinks = 3
	}
	if s.TargetUtil == 0 {
		s.TargetUtil = 0.6
	}
}

// Describe renders the spec's effective (defaulted) parameters for report
// notes, folding any params object the same way Build does.
func (s Spec) Describe() string {
	s.paperDefaults()
	hp := s.hpParams()
	return fmt.Sprintf("topology=%s kind=%v f=%.0f%% k=%.0f%%",
		s.Topology, s.Kind, hp.F*100, hp.K*100)
}

// topoParams folds the spec's flat sizing shorthand into its params object
// (explicit params win; family defaults are merged by topo.Resolve).
func (s Spec) topoParams() topo.Params {
	var p topo.Params
	if s.TopoParams != nil {
		p = *s.TopoParams
	}
	return p.WithSizes(s.Nodes, s.Links, s.Capacity)
}

// hpParams folds the spec's flat traffic shorthand into its params object.
func (s Spec) hpParams() traffic.Params {
	var p traffic.Params
	if s.HPParams != nil {
		p = *s.HPParams
	}
	return p.WithShorthand(s.F, s.K, s.Sinks)
}

// Build constructs the instance through the generator registries: topology
// with capacities and delays from the (Seed, 0xd7a1) stream, then traffic
// for it from the same stream (see FromGraph for the rest of the recipe).
func (s Spec) Build() (*Instance, error) {
	s.paperDefaults()
	if err := s.checkFinite(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(s.Seed, 0xd7a1))
	g, err := topo.Generate(s.Topology, s.topoParams(), rng)
	if err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}
	return s.synthesize(g, rng)
}

// FromGraph builds the instance on a caller's topology (a graph read from a
// file), drawing traffic from the (Seed, 0xf11e) stream. The spec's topology
// fields are ignored; everything else applies as in Build.
func (s Spec) FromGraph(g *graph.Graph) (*Instance, error) {
	s.paperDefaults()
	if err := s.checkFinite(); err != nil {
		return nil, err
	}
	return s.synthesize(g, rand.New(rand.NewPCG(s.Seed, 0xf11e)))
}

// checkFinite rejects a defaulted spec whose real-valued parameters are not
// finite: NaN slips past every range check written as a rejection (x <= 0).
func (s Spec) checkFinite() error {
	hp := s.hpParams()
	names := [...]string{"TargetUtil", "ThetaMs", "Capacity", "F", "K"}
	for i, v := range [...]float64{s.TargetUtil, s.ThetaMs, s.topoParams().CapacityMbps, hp.F, hp.K} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("instance: %s=%g is not a finite number", names[i], v)
		}
	}
	return nil
}

// synthesize completes the recipe on g: gravity low-priority matrix (dense,
// or sink-limited with LPSinks), high-priority matrix per model, both scaled
// so the unit-weight routing has the target average link utilization (the
// paper "varies total traffic demand by scaling the traffic matrix"), and
// the objective's evaluator options. s must be defaulted.
func (s Spec) synthesize(g *graph.Graph, rng *rand.Rand) (*Instance, error) {
	n := g.NumNodes()
	if s.LPSinks < 0 {
		return nil, fmt.Errorf("instance: lp sinks=%d < 0", s.LPSinks)
	}
	if s.LPSinks > n {
		return nil, fmt.Errorf("instance: lp sinks=%d > %d nodes", s.LPSinks, n)
	}
	var tl *traffic.Matrix
	if s.LPSinks > 0 {
		tl = traffic.GravitySinks(n, s.LPSinks, rng)
	} else {
		tl = traffic.Gravity(n, rng)
	}
	th, err := traffic.GenerateHighPriority(s.HPModel, g, tl.Total(), s.hpParams(), rng)
	if err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}

	if err := scaleToUtilization(g, th, tl, s.TargetUtil); err != nil {
		return nil, err
	}

	opts := eval.Options{Kind: s.Kind, SLA: cost.DefaultSLA()}
	opts.SLA.ThetaMs = s.ThetaMs
	return &Instance{G: g, TH: th, TL: tl, Opts: opts}, nil
}

// Evaluator builds the instance's evaluator.
func (inst *Instance) Evaluator() (*eval.Evaluator, error) {
	return eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
}

// scaleToUtilization scales both matrices so the average link utilization
// under unit-weight (hop count) routing equals target. Optimized routings
// shift load but barely change the average, so the measured utilization of
// the final STR solution — which experiments report as the paper does —
// lands near the target.
func scaleToUtilization(g *graph.Graph, th, tl *traffic.Matrix, target float64) error {
	if !(target > 0) {
		return fmt.Errorf("instance: target utilization %g is not positive", target)
	}
	w := spf.Uniform(g.NumEdges())
	hLoads, err := spf.Loads(g, w, th)
	if err != nil {
		return err
	}
	lLoads, err := spf.Loads(g, w, tl)
	if err != nil {
		return err
	}
	utils := make([]float64, g.NumEdges())
	for i := range utils {
		utils[i] = (hLoads[i] + lLoads[i]) / g.Edge(graph.EdgeID(i)).Capacity
	}
	avg := stats.Mean(utils)
	if !(avg > 0) {
		return fmt.Errorf("instance: zero baseline utilization")
	}
	th.Scale(target / avg)
	tl.Scale(target / avg)
	return nil
}
