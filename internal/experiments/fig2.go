package experiments

import (
	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/render"
)

// fig2Panel registers one panel of Fig. 2: RH and RL versus network load
// for one topology and cost function.
func fig2Panel(id, title string, base instance.Spec, loLoad, hiLoad float64, seed uint64) {
	register(Runner{
		ID:    id,
		Title: title,
		Run: func(p Preset) (*Report, error) {
			specs := loadSweepSpecs(base, linspace(loLoad, hiLoad, p.Points), seed)
			points, err := runSweep(specs, p)
			if err != nil {
				return nil, err
			}
			hx, hy := ratioSeries(points, func(pt *Point) float64 { return pt.RH })
			lx, ly := ratioSeries(points, func(pt *Point) float64 { return pt.RL })
			return &Report{
				ID:     id,
				Title:  title,
				XLabel: "avg-util",
				Series: []render.Series{
					{Name: "H-cost ratio", X: hx, Y: hy},
					{Name: "L-cost ratio", X: lx, Y: ly},
				},
				Notes: []string{
					base.Describe(),
					"ratio = cost under STR / cost under DTR (paper Fig. 2)",
				},
			}, nil
		},
	})
}

func init() {
	// Fig. 2 (a-c): load-based cost function; f=30%, k=10% (defaults).
	fig2Panel("fig2a", "Fig 2(a): cost ratios, 30-node/150-arc random topology, load-based",
		instance.Spec{Topology: instance.TopoRandom, Kind: eval.LoadBased}, 0.50, 0.90, 201)
	fig2Panel("fig2b", "Fig 2(b): cost ratios, 30-node/162-arc power-law topology, load-based",
		instance.Spec{Topology: instance.TopoPowerLaw, Kind: eval.LoadBased}, 0.40, 0.80, 202)
	fig2Panel("fig2c", "Fig 2(c): cost ratios, 16-node/70-arc ISP topology, load-based",
		instance.Spec{Topology: instance.TopoISP, Kind: eval.LoadBased}, 0.40, 0.80, 203)
	// Fig. 2 (d-f): SLA-based cost function, θ=25ms.
	fig2Panel("fig2d", "Fig 2(d): cost ratios, random topology, SLA-based",
		instance.Spec{Topology: instance.TopoRandom, Kind: eval.SLABased}, 0.50, 0.75, 204)
	fig2Panel("fig2e", "Fig 2(e): cost ratios, power-law topology, SLA-based",
		instance.Spec{Topology: instance.TopoPowerLaw, Kind: eval.SLABased}, 0.40, 0.65, 205)
	fig2Panel("fig2f", "Fig 2(f): cost ratios, ISP topology, SLA-based",
		instance.Spec{Topology: instance.TopoISP, Kind: eval.SLABased}, 0.40, 0.80, 206)
}
