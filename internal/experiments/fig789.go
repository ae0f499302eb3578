package experiments

import (
	"fmt"
	"sort"

	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/instance"
	"dualtopo/internal/render"
)

func init() {
	register(Runner{
		ID:    "fig7",
		Title: "Fig 7: link load vs propagation delay under the SLA-based cost",
		Run:   runFig7,
	})
	register(Runner{
		ID:    "fig8a",
		Title: "Fig 8(a): sink model, Uniform vs Local clients (power-law, load-based)",
		Run:   func(p Preset) (*Report, error) { return runFig8(p, "fig8a", eval.LoadBased, 0.40, 0.80, 801) },
	})
	register(Runner{
		ID:    "fig8b",
		Title: "Fig 8(b): sink model, Uniform vs Local clients (power-law, SLA-based)",
		Run:   func(p Preset) (*Report, error) { return runFig8(p, "fig8b", eval.SLABased, 0.50, 0.80, 802) },
	})
	register(Runner{
		ID:    "fig9",
		Title: "Fig 9: impact of the SLA delay bound on STR and DTR",
		Run:   runFig9,
	})
}

// runFig7 reports per-link total utilization against propagation delay for
// the STR and DTR solutions of one SLA-based instance (k=30%, where the
// low-delay-link concentration is strongest).
func runFig7(p Preset) (*Report, error) {
	spec := instance.Spec{Topology: instance.TopoRandom, Kind: eval.SLABased, F: 0.30, K: 0.30, TargetUtil: 0.7, Seed: 701}
	pt, err := runPoint(spec, p)
	if err != nil {
		return nil, err
	}
	inst := pt.Inst
	strUtil := pt.STR.Result.Utilization(inst.G)
	dtrUtil := pt.DTR.Result.Utilization(inst.G)
	type linkPoint struct{ delay, str, dtr float64 }
	pts := make([]linkPoint, inst.G.NumEdges())
	for i := range pts {
		e := inst.G.Edge(graph.EdgeID(i))
		pts[i] = linkPoint{e.Delay, strUtil[i], dtrUtil[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].delay < pts[j].delay })
	xs := make([]float64, len(pts))
	strY := make([]float64, len(pts))
	dtrY := make([]float64, len(pts))
	for i, lp := range pts {
		xs[i] = lp.delay
		strY[i] = lp.str
		dtrY[i] = lp.dtr
	}
	return &Report{
		ID:     "fig7",
		Title:  "Fig 7: link utilization vs propagation delay (SLA-based, k=30%)",
		XLabel: "prop-delay-ms",
		Series: []render.Series{
			{Name: "STR util", X: xs, Y: strY},
			{Name: "DTR util", X: xs, Y: dtrY},
		},
		Notes: []string{"paper: under STR, links with low propagation delay attract disproportionate load"},
	}, nil
}

// runFig8 sweeps network load for the sink model with uniformly placed vs
// sink-local clients on the power-law topology (f=20%, k=10%, 3 sinks).
func runFig8(p Preset, id string, kind eval.Kind, loLoad, hiLoad float64, seed uint64) (*Report, error) {
	var series []render.Series
	for i, model := range []string{instance.HPSinkLocal, instance.HPSinkUniform} {
		base := instance.Spec{Topology: instance.TopoPowerLaw, Kind: kind, F: 0.20, K: 0.10, HPModel: model}
		specs := loadSweepSpecs(base, linspace(loLoad, hiLoad, p.Points), seed+10*uint64(i))
		points, err := runSweep(specs, p)
		if err != nil {
			return nil, err
		}
		xs, ys := targetRatioSeries(points, func(pt *Point) float64 { return pt.RL })
		name := "Local"
		if model == instance.HPSinkUniform {
			name = "Uniform"
		}
		series = append(series, render.Series{Name: name, X: xs, Y: ys})
	}
	return &Report{
		ID:     id,
		Title:  fmt.Sprintf("Fig 8: sink-model RL, Uniform vs Local clients (%v)", kind),
		XLabel: "avg-util",
		Series: series,
		Notes:  []string{"paper: RL ≈ 1 when clients sit next to the sinks; DTR helps most with dispersed clients"},
	}, nil
}

// runFig9 varies the SLA delay bound θ from 25 to 35 ms at f=30%, k=30%,
// average utilization ≈ 0.5, and reports violations, low-priority cost and
// maximum utilization for both schemes.
func runFig9(p Preset) (*Report, error) {
	thetas := []float64{25, 30, 35}
	var rows [][]string
	var vioSTR, vioDTR, costSTR, costDTR, maxSTR, maxDTR []float64
	for i, theta := range thetas {
		spec := instance.Spec{
			Topology: instance.TopoRandom, Kind: eval.SLABased,
			F: 0.30, K: 0.30, ThetaMs: theta, TargetUtil: 0.5,
			Seed: 901 + uint64(i)*0, // same instance across θ, as in the paper
		}
		pt, err := runPoint(spec, p)
		if err != nil {
			return nil, err
		}
		sMax := pt.STR.Result.MaxUtilization(pt.Inst.G)
		dMax := pt.DTR.Result.MaxUtilization(pt.Inst.G)
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", theta),
			fmt.Sprintf("%d", pt.STR.Result.Violations),
			fmt.Sprintf("%d", pt.DTR.Result.Violations),
			fmt.Sprintf("%.4g", pt.STR.Result.PhiL),
			fmt.Sprintf("%.4g", pt.DTR.Result.PhiL),
			fmt.Sprintf("%.3f", sMax),
			fmt.Sprintf("%.3f", dMax),
		})
		vioSTR = append(vioSTR, float64(pt.STR.Result.Violations))
		vioDTR = append(vioDTR, float64(pt.DTR.Result.Violations))
		costSTR = append(costSTR, pt.STR.Result.PhiL)
		costDTR = append(costDTR, pt.DTR.Result.PhiL)
		maxSTR = append(maxSTR, sMax)
		maxDTR = append(maxDTR, dMax)
	}
	return &Report{
		ID:     "fig9",
		Title:  "Fig 9: SLA bound 25-35ms, f=30%, k=30%, avg util ~0.5",
		XLabel: "theta-ms",
		Series: []render.Series{
			{Name: "STR violations", X: thetas, Y: vioSTR},
			{Name: "DTR violations", X: thetas, Y: vioDTR},
			{Name: "STR L-cost", X: thetas, Y: costSTR},
			{Name: "DTR L-cost", X: thetas, Y: costDTR},
			{Name: "STR max-util", X: thetas, Y: maxSTR},
			{Name: "DTR max-util", X: thetas, Y: maxDTR},
		},
		Tables: []TableBlock{{
			Title:  "summary",
			Header: []string{"theta", "STR-viol", "DTR-viol", "STR-Lcost", "DTR-Lcost", "STR-maxU", "DTR-maxU"},
			Rows:   rows,
		}},
		Notes: []string{"paper: loosening θ to ~30ms lets STR approach DTR's low-priority performance"},
	}, nil
}
