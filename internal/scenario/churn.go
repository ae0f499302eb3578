package scenario

import (
	"fmt"

	"dualtopo/internal/churn"
)

// ChurnSpec attaches a churn replay to every trial: after optimization the
// trial's final DTR weights are driven through a generated timeline of link
// flaps, node outages and weight resets (internal/churn), and the resulting
// SLA-violation and transient-loss integrals land in the trial record. Zero
// fields resolve to churn.GenSpec defaults; a zero Seed derives a per-trial
// seed so trials churn independently while re-runs stay deterministic.
type ChurnSpec struct {
	// HorizonS is the replayed duration in seconds (default 600).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// LinkMTBFS/LinkMTTRS are the per-link mean up/repair times in
	// seconds. LinkMTBFS == 0 disables link flapping.
	LinkMTBFS float64 `json:"link_mtbf_s,omitempty"`
	LinkMTTRS float64 `json:"link_mttr_s,omitempty"`
	// NodeMTBFS/NodeMTTRS do the same per node; 0 disables node churn.
	NodeMTBFS float64 `json:"node_mtbf_s,omitempty"`
	NodeMTTRS float64 `json:"node_mttr_s,omitempty"`
	// WeightRateHz is the network-wide operator reconfiguration rate.
	WeightRateHz float64 `json:"weight_rate_hz,omitempty"`
	// Intensity is the global churn multiplier (default 1).
	Intensity float64 `json:"intensity,omitempty"`
	// Convergence enables OSPF-convergence emulation: each event is also
	// scored over its flooding/SPF window, adding transient loss from
	// stale-tree blackholes and micro-loops.
	Convergence bool `json:"convergence,omitempty"`
	// Seed pins the timeline seed across trials; 0 derives per-trial seeds.
	Seed uint64 `json:"seed,omitempty"`
}

// genSpec derives the trial's generator spec.
func (c ChurnSpec) genSpec(trialSeed uint64) churn.GenSpec {
	seed := c.Seed
	if seed == 0 {
		seed = splitmix64(trialSeed ^ 0x636875726e) // "churn"
	}
	return churn.GenSpec{
		Seed:       seed,
		Horizon:    c.HorizonS,
		LinkMTBF:   c.LinkMTBFS,
		LinkMTTR:   c.LinkMTTRS,
		NodeMTBF:   c.NodeMTBFS,
		NodeMTTR:   c.NodeMTTRS,
		WeightRate: c.WeightRateHz,
		Intensity:  c.Intensity,
	}
}

// Validate checks the spec against the generator's invariants.
func (c ChurnSpec) Validate() error {
	if err := c.genSpec(1).Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if c.LinkMTBFS == 0 && c.NodeMTBFS == 0 && c.WeightRateHz == 0 {
		return fmt.Errorf("scenario: churn spec generates no events (set link_mtbf_s, node_mtbf_s or weight_rate_hz)")
	}
	return nil
}

// ChurnMetrics is the trial-record slice of a churn replay.
type ChurnMetrics struct {
	Events           int     `json:"events"`
	Disconnects      int     `json:"disconnects"`
	ViolationMbpsSec float64 `json:"violation_mbps_sec"`
	TransientMbpsSec float64 `json:"transient_mbps_sec,omitempty"`
	MicroLoops       int     `json:"micro_loops,omitempty"`
	Blackholes       int     `json:"blackholes,omitempty"`
	PeakUtil         float64 `json:"peak_util"`
}

// runChurn replays the trial's churn timeline against its final DTR
// weights, on the point's evaluator, and condenses the summary.
func runChurn(c *ChurnSpec, pt *Point, trialSeed uint64) (*ChurnMetrics, error) {
	tl, err := churn.Generate(pt.Inst.G, c.genSpec(trialSeed))
	if err != nil {
		return nil, err
	}
	rep, err := churn.NewReplayer(pt.Eval, pt.DTR.WH, pt.DTR.WL, churn.Options{
		Convergence: churn.ConvergenceOptions{Enabled: c.Convergence},
	})
	if err != nil {
		return nil, err
	}
	sum, err := rep.Run(tl, nil)
	if err != nil {
		return nil, err
	}
	return &ChurnMetrics{
		Events:           sum.Events,
		Disconnects:      sum.Disconnects,
		ViolationMbpsSec: sum.ViolationMbpsSec,
		TransientMbpsSec: sum.TransientMbpsSec,
		MicroLoops:       sum.MicroLoops,
		Blackholes:       sum.Blackholes,
		PeakUtil:         sum.PeakUtil,
	}, nil
}
