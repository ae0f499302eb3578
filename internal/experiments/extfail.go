package experiments

import (
	"fmt"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/resilience"
	"dualtopo/internal/stats"
)

func init() {
	register(Runner{
		ID:    "extfail",
		Title: "Extension: single-link-failure robustness of STR vs DTR weight settings",
		Run:   runExtFail,
	})
}

// runExtFail is an extension beyond the paper (suggested by its resilience
// related-work, [7-9]): how fragile are the optimized weight settings when a
// link fails and OSPF reconverges with unchanged weights? The resilience
// sweep engine threads every single-link failure through the incremental
// routing core; this runner reports the distribution of low-priority cost
// degradation.
func runExtFail(p Preset) (*Report, error) {
	spec := instance.Spec{Topology: instance.TopoRandom, Kind: eval.LoadBased, TargetUtil: 0.6, Seed: 1101}
	pt, err := runPoint(spec, p)
	if err != nil {
		return nil, err
	}
	states, err := resilience.Enumerate(pt.Inst.G, resilience.Model{Kind: resilience.KindLink})
	if err != nil {
		return nil, err
	}
	e, err := pt.Inst.Evaluator()
	if err != nil {
		return nil, err
	}
	fs, err := resilience.CompareSchemes(resilience.NewSweeper(e, resilience.Options{}), pt.STR.W, pt.DTR.WH, pt.DTR.WL, states)
	if err != nil {
		return nil, err
	}

	row := func(name string, xs []float64) []string {
		return []string{
			name,
			fmt.Sprintf("%.2f", stats.Mean(xs)),
			fmt.Sprintf("%.2f", stats.Quantile(xs, 0.5)),
			fmt.Sprintf("%.2f", stats.Quantile(xs, 0.9)),
			fmt.Sprintf("%.2f", stats.Max(xs)),
		}
	}
	return &Report{
		ID:    "extfail",
		Title: "Extension: ΦL degradation under every single-link failure (weights unchanged)",
		Tables: []TableBlock{{
			Title:  fmt.Sprintf("degradation factor ΦL(failed)/ΦL(intact); %d failures, %d disconnecting", len(fs.STR), fs.Disconnecting),
			Header: []string{"scheme", "mean", "median", "p90", "max"},
			Rows: [][]string{
				row("STR", fs.STR),
				row("DTR", fs.DTR),
			},
		}},
		Notes: []string{
			fmt.Sprintf("DTR keeps the lower absolute ΦL after %d/%d failures", fs.DTRStillBetter(), len(fs.STR)),
			"weights stay fixed across failures (OSPF reconverges on surviving links), as operators run between re-optimizations",
		},
	}, nil
}
