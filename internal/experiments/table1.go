package experiments

import (
	"fmt"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
)

func init() {
	register(Runner{
		ID:    "table1",
		Title: "Table 1: low-priority performance of ε-relaxed STR vs DTR (load-based)",
		Run:   runTable1,
	})
}

// runTable1 reproduces Table 1: for each topology, a load sweep reporting
// RL (strict STR / DTR), and RL,5% and RL,30% (ε-relaxed STR / DTR).
func runTable1(p Preset) (*Report, error) {
	configs := []struct {
		name string
		base instance.Spec
		lo   float64
		hi   float64
		seed uint64
	}{
		{"30-node, 150-link random topology", instance.Spec{Topology: instance.TopoRandom, Kind: eval.LoadBased}, 0.45, 0.85, 1001},
		{"30-node, 162-link power-law topology", instance.Spec{Topology: instance.TopoPowerLaw, Kind: eval.LoadBased}, 0.40, 0.85, 1002},
		{"ISP topology", instance.Spec{Topology: instance.TopoISP, Kind: eval.LoadBased}, 0.35, 0.85, 1003},
	}
	epsilons := []float64{0.05, 0.30}
	report := &Report{
		ID:    "table1",
		Title: "Table 1: STR relaxation vs DTR, f=30%, k=10%",
		Notes: []string{
			"RL = strict STR ΦL / DTR ΦL; RL,ε uses the best ΦL among settings with ΦH ≤ (1+ε)Φ*H",
			"AD = measured average link utilization of the strict STR solution",
		},
	}
	for _, cfg := range configs {
		preset := p
		preset.STR.Epsilons = epsilons
		specs := loadSweepSpecs(cfg.base, linspace(cfg.lo, cfg.hi, p.Points), cfg.seed)
		points, err := runSweep(specs, preset)
		if err != nil {
			return nil, err
		}
		rl := []string{"RL"}
		rl5 := []string{"RL,5%"}
		rl30 := []string{"RL,30%"}
		ad := []string{"AD"}
		for _, pt := range points {
			rl = append(rl, fmt.Sprintf("%.2f", pt.RL))
			rl5 = append(rl5, relaxedRatio(pt, 0.05))
			rl30 = append(rl30, relaxedRatio(pt, 0.30))
			ad = append(ad, fmt.Sprintf("%.2f", pt.MeasuredUtil))
		}
		header := []string{cfg.name}
		for i := range points {
			header = append(header, fmt.Sprintf("pt%d", i+1))
		}
		report.Tables = append(report.Tables, TableBlock{
			Title:  cfg.name,
			Header: header,
			Rows:   [][]string{rl, rl5, rl30, ad},
		})
	}
	return report, nil
}

// relaxedRatio formats ΦL(relaxed STR)/ΦL(DTR) for one ε.
func relaxedRatio(pt *Point, epsilon float64) string {
	rec, ok := pt.STR.Relaxed[epsilon]
	if !ok || !rec.Found {
		return "n/a"
	}
	dtr := pt.DTR.Result.PhiL
	if dtr <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", rec.PhiL/dtr)
}
