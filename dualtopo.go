// Package dualtopo is a library for studying and deploying service
// differentiation through routing in IP networks, reproducing
// "Improving Service Differentiation in IP Networks through Dual Topology
// Routing" (Kwong, Guérin, Shaikh, Tao — ACM CoNEXT 2007).
//
// The core idea: with multi-topology OSPF (RFC 4915) a network can route its
// high- and low-priority traffic classes on two different sets of link
// weights (dual-topology routing, DTR) instead of one (single-topology
// routing, STR). Under strict priority queueing, the high-priority class is
// unaffected by the low-priority class, so a second topology lets the
// low-priority traffic escape links the high-priority traffic has loaded —
// at no cost to the high-priority class.
//
// The library provides:
//
//   - topology generators (random, power-law, a 16-node ISP backbone) and
//     traffic-matrix models (gravity, random high-priority, sink) from the
//     paper's evaluation (§5.1);
//   - the OSPF forwarding model: per-destination ECMP shortest-path DAGs,
//     load aggregation, expected end-to-end delays;
//   - both objective families (§3): the load-based Fortz–Thorup cost with
//     residual capacities, and the SLA penalty cost with per-pair delay
//     bounds;
//   - the paper's search heuristics (§4): the three-routine DTR search
//     (Algorithm 1, FindH/FindL of Algorithm 2) and the Fortz–Thorup
//     single-weight-change STR baseline with ε-relaxation records;
//   - an MT-OSPF control-plane simulation (LSA flooding, per-topology FIBs,
//     classified forwarding) to deploy and verify computed weights;
//   - a discrete-event priority-queue simulator validating the analytic
//     delay models;
//   - runners regenerating every table and figure of the paper (§5);
//   - a session/handle engine and the dtrd daemon serving routing queries
//     over HTTP+JSON (route, what-if, weight search) from pooled sessions.
//
// # Quick start
//
// The engine API is the front door: load (or wrap) a problem instance once
// into a TopologyHandle, lease a RoutingSession per unit of work, and hand
// its evaluator to the search and analysis routines.
//
//	rng := rand.New(rand.NewPCG(1, 1))
//	g, _ := dualtopo.RandomTopology(30, 75, 500, rng)
//	dualtopo.AssignUniformDelays(g, 1.2, 15, rng)
//	tl := dualtopo.GravityMatrix(30, rng)
//	th, _ := dualtopo.RandomHighPriorityMatrix(30, 0.1, 0.3, tl.Total(), rng)
//	h, _ := dualtopo.NewTopologyHandle("quickstart", g, th, tl, dualtopo.DefaultOptions(), dualtopo.SessionPool{})
//	sess, _ := h.Session(context.Background())
//	defer h.Release(sess)
//	str, _ := dualtopo.OptimizeSTR(sess.Evaluator(), dualtopo.STRDefaults())
//	dtr, _ := dualtopo.OptimizeDTR(sess.Evaluator(), dualtopo.DTRDefaults())
//	fmt.Println(str.Result.PhiL / dtr.Result.PhiL) // the paper's RL
//
// One handle serves any number of concurrent sessions; results are bitwise
// independent of pooling and lease order. cmd/dtrd exposes the same engine
// over HTTP for long-lived serving.
//
// See examples/ for complete programs and EXPERIMENTS.md for measured
// reproductions of the paper's results.
package dualtopo

import (
	"math/rand/v2"

	"dualtopo/internal/cost"
	"dualtopo/internal/engine"
	"dualtopo/internal/eval"
	"dualtopo/internal/experiments"
	"dualtopo/internal/graph"
	"dualtopo/internal/instance"
	"dualtopo/internal/ospf"
	"dualtopo/internal/qsim"
	"dualtopo/internal/resilience"
	"dualtopo/internal/scenario"
	"dualtopo/internal/search"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// Engine: the session/handle serving core. A TopologyHandle owns one
// immutable problem instance (graph, matrices, objective options) and a
// bounded pool of RoutingSessions; each session owns private routing state
// — an evaluator clone and a failure sweeper, with the incremental routing
// states they drive — leased per unit of work and returned with Release.
type (
	// TopologyHandle is the immutable, concurrency-safe half of a loaded
	// topology plus its session pool.
	TopologyHandle = engine.Handle
	// RoutingSession is one leased unit of mutable routing state.
	RoutingSession = engine.Session
	// SessionPool sizes a handle's session pool (Size, LeaseTimeout).
	SessionPool = engine.PoolConfig
	// EngineSpec describes an instance to load through the topology and
	// traffic registries.
	EngineSpec = engine.Spec
	// InstanceSpec is the declarative problem-instance description shared
	// by the engine, the scenario campaigns and the batch CLIs.
	InstanceSpec = instance.Spec
	// Instance is a fully built problem: topology, matrices, options.
	Instance = instance.Instance
)

// Engine session-lifecycle errors.
var (
	// ErrSessionLeaseTimeout: every pooled session stayed leased past the
	// lease timeout.
	ErrSessionLeaseTimeout = engine.ErrLeaseTimeout
	// ErrHandleClosed: Session was called on a closed handle.
	ErrHandleClosed = engine.ErrClosed
	// ErrLeakedCheckpoint: a session was released with an armed checkpoint
	// (it is reset before pooling; the leak is a caller bug).
	ErrLeakedCheckpoint = engine.ErrLeakedCheckpoint
)

// LoadTopology builds the instance described by spec through the generator
// registries and returns its handle — the programmatic equivalent of the
// dtrd daemon's POST /v1/topologies.
func LoadTopology(spec EngineSpec) (*TopologyHandle, error) { return engine.Load(spec) }

// NewTopologyHandle wraps an already-built problem (an imported graph,
// hand-constructed matrices) in a handle. The inputs must not be mutated
// afterwards: every session reads them.
func NewTopologyHandle(name string, g *Graph, th, tl *TrafficMatrix, opts Options, pool SessionPool) (*TopologyHandle, error) {
	return engine.New(name, &instance.Instance{G: g, TH: th, TL: tl, Opts: opts}, pool)
}

// Graph types.
type (
	// Graph is a directed graph with per-arc capacities (Mbps) and
	// propagation delays (ms).
	Graph = graph.Graph
	// NodeID is a dense node index.
	NodeID = graph.NodeID
	// EdgeID is a dense directed-arc index.
	EdgeID = graph.EdgeID
	// Edge is one directed arc.
	Edge = graph.Edge
)

// NewGraph returns a graph with n isolated nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Topology generation (§5.1.1).

// DefaultCapacity is the paper's 500 Mbps per-arc capacity.
const DefaultCapacity = topo.DefaultCapacity

// RandomTopology generates a connected topology with near-uniform degrees.
func RandomTopology(nodes, links int, capacity float64, rng *rand.Rand) (*Graph, error) {
	return topo.Random(nodes, links, capacity, rng)
}

// PowerLawTopology generates a Barabási–Albert preferential-attachment
// topology with exactly the requested link count.
func PowerLawTopology(nodes, links int, capacity float64, rng *rand.Rand) (*Graph, error) {
	return topo.PowerLaw(nodes, links, capacity, rng)
}

// ISPBackbone returns the 16-node, 70-arc North-American backbone with
// geography-derived propagation delays (8–15 ms).
func ISPBackbone(capacity float64) *Graph { return topo.ISPBackbone(capacity) }

// AssignUniformDelays draws symmetric per-link propagation delays uniformly
// from [minMs, maxMs].
func AssignUniformDelays(g *Graph, minMs, maxMs float64, rng *rand.Rand) {
	topo.AssignUniformDelays(g, minMs, maxMs, rng)
}

// Generator registry: every topology family (the three above plus Waxman
// geometric graphs, ring/grid/torus lattices, two-tier hierarchical ISPs
// and GML/adjacency-list imports) is reachable by name with a validated,
// JSON-serializable parameter set.

// TopologyParams parameterizes a registered topology family; zero fields
// resolve to the family's defaults.
type TopologyParams = topo.Params

// TopologyFamilies lists every registered topology family name.
func TopologyFamilies() []string { return topo.Families() }

// GenerateTopology builds a strongly connected topology from any registered
// family, validating p against the family's rules.
func GenerateTopology(family string, p TopologyParams, rng *rand.Rand) (*Graph, error) {
	return topo.Generate(family, p, rng)
}

// ImportTopology reads a real-world topology from a GML or adjacency-list
// file, applying p's capacity and delay settings (unset fields resolve to
// the import family's defaults; the result is connectivity-checked).
func ImportTopology(path string, p TopologyParams, rng *rand.Rand) (*Graph, error) {
	p.Path = path
	return topo.Generate("import", p, rng)
}

// Traffic matrices (§5.1.2).
type (
	// TrafficMatrix is a |V|×|V| demand matrix in Mbps, stored column-major
	// with all-zero destination columns left unallocated — sink-limited
	// matrices cost O(destinations·n), not O(n²).
	TrafficMatrix = traffic.Matrix
	// Demand is one nonzero matrix entry.
	Demand = traffic.Demand
	// SinkPlacement selects where sink-model clients live.
	SinkPlacement = traffic.SinkPlacement
)

// Sink-model client placements.
const (
	UniformClients = traffic.UniformClients
	LocalClients   = traffic.LocalClients
)

// NewTrafficMatrix returns an all-zero n×n matrix.
func NewTrafficMatrix(n int) *TrafficMatrix { return traffic.NewMatrix(n) }

// GravityMatrix generates the low-priority gravity-model matrix (Eq. 6–7).
func GravityMatrix(n int, rng *rand.Rand) *TrafficMatrix { return traffic.Gravity(n, rng) }

// GravitySinksMatrix generates a sink-limited gravity matrix: every source
// sends to sinks destinations spread evenly over the ID space, costing
// O(sinks·n) memory instead of the dense model's O(n²) — the only feasible
// shape past a few thousand nodes.
func GravitySinksMatrix(n, sinks int, rng *rand.Rand) *TrafficMatrix {
	return traffic.GravitySinks(n, sinks, rng)
}

// RandomHighPriorityMatrix generates the random high-priority model: density
// k of SD pairs, total volume a fraction f of all traffic.
func RandomHighPriorityMatrix(n int, k, f, etaL float64, rng *rand.Rand) (*TrafficMatrix, error) {
	return traffic.RandomHighPriority(n, k, f, etaL, rng)
}

// SinkHighPriorityMatrix generates the sink ("popular server") model with
// bidirectional client-sink demands.
func SinkHighPriorityMatrix(g *Graph, sinks int, k, f, etaL float64, placement SinkPlacement, rng *rand.Rand) (*TrafficMatrix, error) {
	return traffic.SinkHighPriority(g, sinks, k, f, etaL, placement, rng)
}

// TrafficParams parameterizes a registered high-priority traffic model;
// zero fields resolve to the model's defaults.
type TrafficParams = traffic.Params

// TrafficModels lists every registered high-priority model name: the
// paper's three placements plus capacity-weighted gravity, bimodal hotspot
// and the uniform baseline.
func TrafficModels() []string { return traffic.Models() }

// GenerateHighPriorityMatrix builds TH from any registered model, validating
// p against the model's rules; etaL is the total low-priority volume the
// f-fraction scales against.
func GenerateHighPriorityMatrix(model string, g *Graph, etaL float64, p TrafficParams, rng *rand.Rand) (*TrafficMatrix, error) {
	return traffic.GenerateHighPriority(model, g, etaL, p, rng)
}

// Routing substrate.
type (
	// Weights assigns a routing weight (≥1) to every arc.
	Weights = spf.Weights
	// RoutingPlan routes one traffic matrix and answers delay queries.
	RoutingPlan = spf.Plan
	// SPFComputer runs repeated single-destination shortest-path
	// computations over one graph, reusing buffers.
	SPFComputer = spf.Computer
	// SPFTree is one destination's shortest-path DAG.
	SPFTree = spf.Tree
)

// NewSPFComputer returns a single-destination SPF computer for g.
func NewSPFComputer(g *Graph) *SPFComputer { return spf.NewComputer(g) }

// UniformWeights returns unit weights (hop-count routing).
func UniformWeights(n int) Weights { return spf.Uniform(n) }

// RouteLoads routes tm under w and returns per-arc loads (even ECMP split).
func RouteLoads(g *Graph, w Weights, tm *TrafficMatrix) ([]float64, error) {
	return spf.Loads(g, w, tm)
}

// NewRoutingPlan prepares repeated routing of tm's destinations.
func NewRoutingPlan(g *Graph, tm *TrafficMatrix) *RoutingPlan { return spf.NewPlan(g, tm) }

// DisabledWeight is the sentinel weight that removes an arc from routing
// (link failure).
const DisabledWeight = spf.Disabled

// Objectives (§3).
type (
	// Evaluator computes both classes' costs for candidate weight settings.
	Evaluator = eval.Evaluator
	// EvalResult carries every metric of one evaluated routing.
	EvalResult = eval.Result
	// Options selects and parameterizes the objective.
	Options = eval.Options
	// ObjectiveKind is the objective family (load-based or SLA-based).
	ObjectiveKind = eval.Kind
	// SLA holds the SLA cost parameters (θ, a, b, packet size).
	SLA = cost.SLA
	// Lex is a lexicographically ordered cost pair.
	Lex = cost.Lex
)

// Objective kinds.
const (
	LoadBased = eval.LoadBased
	SLABased  = eval.SLABased
)

// DefaultOptions returns load-based evaluation with paper defaults.
func DefaultOptions() Options { return eval.DefaultOptions() }

// DefaultSLA returns θ=25ms, a=100, b=1, 1000-byte packets.
func DefaultSLA() SLA { return cost.DefaultSLA() }

// FortzThorupCost evaluates the piecewise-linear link cost Φ(load, capacity)
// of Eq. (1).
func FortzThorupCost(load, capacity float64) float64 { return cost.Phi(load, capacity) }

// Weight search (§4).
type (
	// DTRParams configures Algorithm 1.
	DTRParams = search.Params
	// STRParams configures the single-weight-change baseline.
	STRParams = search.STRParams
	// DTRResult is the outcome of the DTR search.
	DTRResult = search.DTRResult
	// STRResult is the outcome of the STR baseline search.
	STRResult = search.STRResult
	// RelaxedRecord is the ε-relaxed best low-priority solution (§5.3.1).
	RelaxedRecord = search.RelaxedRecord
)

// DTRDefaults returns the paper's Algorithm 1 parameters (§5.1.3).
func DTRDefaults() DTRParams { return search.Defaults() }

// STRDefaults returns a matched-budget STR baseline configuration.
func STRDefaults() STRParams { return search.STRDefaults() }

// OptimizeDTR runs Algorithm 1 from unit weights.
func OptimizeDTR(e *Evaluator, p DTRParams) (*DTRResult, error) { return search.DTR(e, p) }

// OptimizeDTRFrom runs Algorithm 1 from the given initial weights, e.g. to
// warm-start from an STR solution.
func OptimizeDTRFrom(e *Evaluator, wH, wL Weights, p DTRParams) (*DTRResult, error) {
	return search.DTRFrom(e, wH, wL, p)
}

// OptimizeSTR runs the single-topology baseline search from unit weights.
func OptimizeSTR(e *Evaluator, p STRParams) (*STRResult, error) { return search.STR(e, p) }

// Control plane (RFC 4915 deployment model).
type (
	// OSPFNetwork is a converged multi-topology OSPF control plane.
	OSPFNetwork = ospf.Network
	// Packet is a classified datagram for forwarding.
	Packet = ospf.Packet
	// TopologyID selects a routing topology (MT-ID).
	TopologyID = ospf.TopologyID
)

// Topology identifiers.
const (
	TopoHigh = ospf.TopoHigh
	TopoLow  = ospf.TopoLow
)

// BuildOSPFNetwork floods per-topology link metrics to convergence and
// installs per-class FIBs on every router.
func BuildOSPFNetwork(g *Graph, wH, wL Weights) (*OSPFNetwork, error) {
	return ospf.BuildNetwork(g, wH, wL)
}

// Queueing validation substrate.
type (
	// QueueConfig parameterizes the two-priority M/M/1 simulation.
	QueueConfig = qsim.Config
	// QueueResult is a simulation outcome.
	QueueResult = qsim.Result
)

// Queue disciplines.
const (
	PreemptiveResume = qsim.PreemptiveResume
	NonPreemptive    = qsim.NonPreemptive
)

// SimulateQueue runs the discrete-event priority-queue simulation.
func SimulateQueue(cfg QueueConfig) (*QueueResult, error) { return qsim.Run(cfg) }

// Scenario engine: declarative, parallel, deterministic what-if campaigns.
type (
	// Scenario is a declarative campaign spec (JSON-encodable).
	Scenario = scenario.Spec
	// ScenarioOptions configures campaign execution (workers, callbacks).
	ScenarioOptions = scenario.Options
	// ScenarioResult is a fully executed campaign with per-point aggregates.
	ScenarioResult = scenario.CampaignResult
	// ScenarioTrial is one completed trial of a campaign.
	ScenarioTrial = scenario.TrialResult
	// ScenarioProgress reports execution state after each completed trial.
	ScenarioProgress = scenario.Progress
)

// RunScenario expands the campaign into its deterministic work-list and
// executes it on a bounded worker pool. Aggregates depend only on the spec,
// never on worker count or scheduling.
func RunScenario(spec Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	return scenario.Run(spec, opts)
}

// ScenarioPreset resolves one bundled campaign by name.
func ScenarioPreset(name string) (Scenario, bool) { return scenario.PresetByName(name) }

// Resilience: failure models and delta-powered failure sweeps.
type (
	// FailureModel selects a failure-state family (single/dual link, node,
	// SRLG) plus seeded sampling.
	FailureModel = resilience.Model
	// FailureState is one failure state: the arcs that go down together.
	FailureState = resilience.State
	// FailureSamples holds both schemes' per-state ΦL degradation factors.
	FailureSamples = resilience.Samples
	// FailureSummary condenses FailureSamples for records and aggregates.
	FailureSummary = resilience.Summary
	// RobustParams makes the DTR search failure-aware.
	RobustParams = search.RobustParams
	// RobustScore reports a robust search's failure-aware solution metrics.
	RobustScore = search.RobustScore
)

// Experiments (§5).
type (
	// Experiment runs one of the paper's tables or figures.
	Experiment = experiments.Runner
	// ExperimentReport is a rendered experiment outcome.
	ExperimentReport = experiments.Report
	// ExperimentPreset scales search budgets.
	ExperimentPreset = experiments.Preset
)

// ExperimentIDs lists all registered experiments (fig1..fig9, table1).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment executes one experiment under a preset.
func RunExperiment(id string, p ExperimentPreset) (*ExperimentReport, error) {
	return experiments.Run(id, p)
}

// TinyPreset returns the fast integration-test preset.
func TinyPreset() ExperimentPreset { return experiments.Tiny() }

// SmallPreset returns the default laptop-scale preset.
func SmallPreset() ExperimentPreset { return experiments.Small() }

// PaperPreset returns the publication search budgets (very slow).
func PaperPreset() ExperimentPreset { return experiments.PaperPreset() }
