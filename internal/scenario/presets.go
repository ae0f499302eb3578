package scenario

import (
	"dualtopo/internal/instance"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

// The bundled preset library: named, curated campaigns spanning the paper's
// evaluation axes (topology family × traffic model × objective × failures)
// plus the extended generator families, runnable as `dtrscen run -preset
// <name>` without writing a spec file. All presets default to the tiny
// budget tier; raise it with the CLI's -budget flag (or a spec file) for
// publication-quality numbers.

// presetLibrary lists the bundled campaigns in display order.
var presetLibrary = []Spec{
	{
		Name:        "tiny",
		Description: "smoke test: 30-node random topology, random HP traffic, load objective, 2 loads x 2 trials",
		Topology:    TopologySpec{Family: instance.TopoRandom},
		Traffic:     TrafficSpec{HighModel: instance.HPRandom},
		Objective:   ObjectiveSpec{Kind: "load"},
		Loads:       []float64{0.5, 0.7},
		Trials:      2,
		Seed:        1,
	},
	{
		Name:        "random-load",
		Description: "paper Fig 2(a) family: random topology, load objective, 5-point load sweep",
		Topology:    TopologySpec{Family: instance.TopoRandom},
		Traffic:     TrafficSpec{HighModel: instance.HPRandom},
		Objective:   ObjectiveSpec{Kind: "load"},
		Loads:       []float64{0.5, 0.6, 0.7, 0.8, 0.9},
		Trials:      3,
		Seed:        2,
	},
	{
		Name:        "powerlaw-load",
		Description: "paper Fig 2(b) family: power-law topology, load objective",
		Topology:    TopologySpec{Family: instance.TopoPowerLaw},
		Traffic:     TrafficSpec{HighModel: instance.HPRandom},
		Objective:   ObjectiveSpec{Kind: "load"},
		Loads:       []float64{0.4, 0.5, 0.6, 0.7, 0.8},
		Trials:      3,
		Seed:        3,
	},
	{
		Name:        "isp-load",
		Description: "paper Fig 2(c) family: 16-node ISP backbone, load objective",
		Topology:    TopologySpec{Family: instance.TopoISP},
		Traffic:     TrafficSpec{HighModel: instance.HPRandom},
		Objective:   ObjectiveSpec{Kind: "load"},
		Loads:       []float64{0.4, 0.5, 0.6, 0.7, 0.8},
		Trials:      3,
		Seed:        4,
	},
	{
		Name:        "random-sla",
		Description: "paper Fig 2(d) family: random topology, SLA objective (theta=25ms)",
		Topology:    TopologySpec{Family: instance.TopoRandom},
		Traffic:     TrafficSpec{HighModel: instance.HPRandom},
		Objective:   ObjectiveSpec{Kind: "sla", ThetaMs: 25},
		Loads:       []float64{0.5, 0.6, 0.7},
		Trials:      3,
		Seed:        5,
	},
	{
		Name:        "sink-uniform-load",
		Description: "paper Fig 8 family: sink HP model with uniformly placed clients, power-law topology",
		Topology:    TopologySpec{Family: instance.TopoPowerLaw},
		Traffic:     TrafficSpec{HighModel: instance.HPSinkUniform, F: 0.20, Sinks: 3},
		Objective:   ObjectiveSpec{Kind: "load"},
		Loads:       []float64{0.4, 0.6, 0.8},
		Trials:      3,
		Seed:        6,
	},
	{
		Name:        "sink-local-isp-failures",
		Description: "what-if: sink HP model with sink-local clients on the ISP backbone, plus every single-link failure",
		Topology:    TopologySpec{Family: instance.TopoISP},
		Traffic:     TrafficSpec{HighModel: instance.HPSinkLocal, F: 0.20, Sinks: 3},
		Objective:   ObjectiveSpec{Kind: "load"},
		Loads:       []float64{0.5, 0.7},
		Trials:      3,
		Seed:        7,
		Failures:    FailureSpec{Kind: "link"},
	},
	{
		Name:        "powerlaw-sla-failures",
		Description: "what-if: SLA objective on the power-law topology under every single-link failure",
		Topology:    TopologySpec{Family: instance.TopoPowerLaw},
		Traffic:     TrafficSpec{HighModel: instance.HPRandom},
		Objective:   ObjectiveSpec{Kind: "sla", ThetaMs: 25},
		Loads:       []float64{0.5, 0.6},
		Trials:      3,
		Seed:        8,
		Failures:    FailureSpec{Kind: "link"},
	},
	{
		Name:        "isp-robust-dual-link",
		Description: "resilience: failure-aware (robust) DTR search on the ISP backbone, swept over sampled dual-link failures",
		Topology:    TopologySpec{Family: instance.TopoISP},
		Traffic:     TrafficSpec{HighModel: instance.HPRandom},
		Objective:   ObjectiveSpec{Kind: "load"},
		Loads:       []float64{0.6},
		Trials:      2,
		Seed:        9,
		Failures:    FailureSpec{Kind: "link", Count: 2, Sample: 16, Robust: true},
	},
	{
		Name:        "waxman-load",
		Description: "generator family: Waxman geometric topology with distance delays, random HP traffic",
		Topology:    TopologySpec{Family: instance.TopoWaxman, Params: &topo.Params{Nodes: 30, Alpha: 0.3, Beta: 0.5}},
		Traffic:     TrafficSpec{HighModel: instance.HPRandom},
		Objective:   ObjectiveSpec{Kind: "load"},
		Loads:       []float64{0.5, 0.7},
		Trials:      2,
		Seed:        10,
	},
	{
		Name:        "hier-hotspot",
		Description: "generator family: two-tier hierarchical ISP with fat core, bimodal hotspot HP traffic",
		Topology:    TopologySpec{Family: instance.TopoHier, Params: &topo.Params{Pops: 5, RoutersPerPop: 4, CoreCapacityX: 4}},
		Traffic:     TrafficSpec{HighModel: instance.HPHotspot, Params: &traffic.Params{F: 0.25, HotspotFraction: 0.15, HotspotBoost: 6}},
		Objective:   ObjectiveSpec{Kind: "load"},
		Loads:       []float64{0.5, 0.7},
		Trials:      2,
		Seed:        11,
	},
	{
		Name:        "torus-gravity-sla",
		Description: "generator family: torus lattice under SLA objective, capacity-weighted gravity HP traffic",
		Topology:    TopologySpec{Family: instance.TopoTorus, Params: &topo.Params{Rows: 4, Cols: 5}},
		Traffic:     TrafficSpec{HighModel: instance.HPGravity, F: 0.20},
		Objective:   ObjectiveSpec{Kind: "sla", ThetaMs: 30},
		Loads:       []float64{0.5, 0.6},
		Trials:      2,
		Seed:        12,
	},
}

// Presets returns the bundled campaign library in display order. Every spec
// is deep-copied; callers may modify the result freely.
func Presets() []Spec {
	out := make([]Spec, len(presetLibrary))
	for i, s := range presetLibrary {
		out[i] = s.clone()
	}
	return out
}

// clone deep-copies the spec's reference fields (Loads, params objects and
// SRLG groups).
func (s Spec) clone() Spec {
	s.Loads = append([]float64(nil), s.Loads...)
	if s.Topology.Params != nil {
		p := *s.Topology.Params
		s.Topology.Params = &p
	}
	if s.Traffic.Params != nil {
		p := *s.Traffic.Params
		s.Traffic.Params = &p
	}
	if s.Failures.SRLGs != nil {
		groups := make([][]int, len(s.Failures.SRLGs))
		for i, g := range s.Failures.SRLGs {
			groups[i] = append([]int(nil), g...)
		}
		s.Failures.SRLGs = groups
	}
	return s
}

// PresetByName resolves one bundled campaign (deep-copied, like Presets).
func PresetByName(name string) (Spec, bool) {
	for _, s := range presetLibrary {
		if s.Name == name {
			return s.clone(), true
		}
	}
	return Spec{}, false
}
