package experiments

import (
	"fmt"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/render"
	"dualtopo/internal/stats"
)

func init() {
	register(Runner{
		ID:    "fig4",
		Title: "Fig 4: impact of high-priority volume fraction f on RL (random topology, load-based)",
		Run:   runFig4,
	})
	register(Runner{
		ID:    "fig5a",
		Title: "Fig 5(a): impact of SD-pair density k on RL (load-based)",
		Run:   func(p Preset) (*Report, error) { return runFig5(p, "fig5a", eval.LoadBased, 0.50, 0.90, 501) },
	})
	register(Runner{
		ID:    "fig5b",
		Title: "Fig 5(b): impact of SD-pair density k on RL (SLA-based)",
		Run:   func(p Preset) (*Report, error) { return runFig5(p, "fig5b", eval.SLABased, 0.50, 0.80, 502) },
	})
	register(Runner{
		ID:    "fig6",
		Title: "Fig 6: sorted link H-utilization under STR for k=10% and k=30% (load-based)",
		Run:   runFig6,
	})
}

// runFig4 sweeps network load for f = 20% and f = 40% at k = 10%.
func runFig4(p Preset) (*Report, error) {
	var series []render.Series
	for i, f := range []float64{0.20, 0.40} {
		base := instance.Spec{Topology: instance.TopoRandom, Kind: eval.LoadBased, F: f, K: 0.10}
		specs := loadSweepSpecs(base, linspace(0.40, 0.80, p.Points), 401+uint64(i))
		points, err := runSweep(specs, p)
		if err != nil {
			return nil, err
		}
		xs, ys := targetRatioSeries(points, func(pt *Point) float64 { return pt.RL })
		series = append(series, render.Series{Name: fmt.Sprintf("f=%.0f%%", f*100), X: xs, Y: ys})
	}
	return &Report{
		ID:     "fig4",
		Title:  "Fig 4: RL vs load for f=20% and f=40%",
		XLabel: "avg-util",
		Series: series,
		Notes:  []string{"paper: RL grows with f — more high-priority traffic leaves STR's shared paths more loaded"},
	}, nil
}

// runFig5 sweeps network load for k = 10% and k = 30% at f = 30%.
func runFig5(p Preset, id string, kind eval.Kind, loLoad, hiLoad float64, seed uint64) (*Report, error) {
	var series []render.Series
	for i, k := range []float64{0.10, 0.30} {
		base := instance.Spec{Topology: instance.TopoRandom, Kind: kind, F: 0.30, K: k}
		specs := loadSweepSpecs(base, linspace(loLoad, hiLoad, p.Points), seed+10*uint64(i))
		points, err := runSweep(specs, p)
		if err != nil {
			return nil, err
		}
		xs, ys := targetRatioSeries(points, func(pt *Point) float64 { return pt.RL })
		series = append(series, render.Series{Name: fmt.Sprintf("k=%.0f%%", k*100), X: xs, Y: ys})
	}
	note := "paper: higher k lowers RL for the load-based cost (H spreads over more links)"
	if kind == eval.SLABased {
		note = "paper: higher k raises RL for the SLA-based cost (low-priority pairs dragged onto short-delay links)"
	}
	return &Report{
		ID:     id,
		Title:  fmt.Sprintf("Fig 5: RL vs load for k=10%% and k=30%% (%v)", kind),
		XLabel: "avg-util",
		Series: series,
		Notes:  []string{note},
	}, nil
}

// runFig6 reports per-link high-priority utilization under the STR solution,
// sorted in descending order, for two SD-pair densities.
func runFig6(p Preset) (*Report, error) {
	var series []render.Series
	for i, k := range []float64{0.10, 0.30} {
		spec := instance.Spec{Topology: instance.TopoRandom, Kind: eval.LoadBased, F: 0.30, K: k, TargetUtil: 0.7, Seed: 601 + uint64(i)}
		pt, err := runPoint(spec, p)
		if err != nil {
			return nil, err
		}
		sorted := stats.SortedDescending(pt.STR.Result.HUtilization(pt.Inst.G))
		xs := make([]float64, len(sorted))
		for j := range xs {
			xs[j] = float64(j + 1)
		}
		series = append(series, render.Series{Name: fmt.Sprintf("k=%.0f%%", k*100), X: xs, Y: sorted})
	}
	return &Report{
		ID:     "fig6",
		Title:  "Fig 6: sorted link H-utilization under STR (load-based, f=30%)",
		XLabel: "link-rank",
		Series: series,
		Notes:  []string{"paper: the k=30% curve flattens — high-priority load spreads over more links"},
	}, nil
}
