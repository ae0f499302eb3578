package experiments

import (
	"fmt"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/render"
	"dualtopo/internal/stats"
)

// fig3Case registers one of Fig. 3's link-utilization histograms comparing
// STR and DTR on the 30-node random topology.
func fig3Case(id, title string, kind eval.Kind, k float64, seed uint64) {
	register(Runner{
		ID:    id,
		Title: title,
		Run: func(p Preset) (*Report, error) {
			// The paper does not state the load point for Fig. 3; a
			// moderately-high 0.7 average utilization matches the regime in
			// which the text discusses it.
			spec := instance.Spec{Topology: instance.TopoRandom, Kind: kind, K: k, TargetUtil: 0.7, Seed: seed}
			pt, err := runPoint(spec, p)
			if err != nil {
				return nil, err
			}
			strUtil := pt.STR.Result.Utilization(pt.Inst.G)
			dtrUtil := pt.DTR.Result.Utilization(pt.Inst.G)
			hi := stats.Max(strUtil)
			if m := stats.Max(dtrUtil); m > hi {
				hi = m
			}
			if hi < 1 {
				hi = 1
			}
			const buckets = 15
			hs := stats.NewHistogram(strUtil, 0, hi, buckets)
			hd := stats.NewHistogram(dtrUtil, 0, hi, buckets)
			centers := make([]float64, buckets)
			strCounts := make([]float64, buckets)
			dtrCounts := make([]float64, buckets)
			labels := make([]string, buckets)
			for i := 0; i < buckets; i++ {
				centers[i] = hs.BucketCenter(i)
				strCounts[i] = float64(hs.Counts[i])
				dtrCounts[i] = float64(hd.Counts[i])
				labels[i] = fmt.Sprintf("%.2f", centers[i])
			}
			return &Report{
				ID:     id,
				Title:  title,
				XLabel: "utilization-bucket",
				Series: []render.Series{
					{Name: "STR link count", X: centers, Y: strCounts},
					{Name: "DTR link count", X: centers, Y: dtrCounts},
				},
				Tables: []TableBlock{{
					Title:  "histogram",
					Header: []string{"bucket", "STR", "DTR"},
					Rows:   histogramRows(labels, strCounts, dtrCounts),
				}},
				Notes: []string{
					fmt.Sprintf("kind=%v k=%.0f%% target-util=0.7 measured-util=%.2f", kind, k*100, pt.MeasuredUtil),
					"paper Fig. 3: DTR yields significantly fewer overloaded links than STR",
				},
			}, nil
		},
	})
}

func histogramRows(labels []string, a, b []float64) [][]string {
	rows := make([][]string, len(labels))
	for i := range labels {
		rows[i] = []string{labels[i], fmt.Sprintf("%.0f", a[i]), fmt.Sprintf("%.0f", b[i])}
	}
	return rows
}

func init() {
	fig3Case("fig3a", "Fig 3(a): link utilization histogram, load-based, k=10%", eval.LoadBased, 0.10, 301)
	fig3Case("fig3b", "Fig 3(b): link utilization histogram, SLA-based, k=10%", eval.SLABased, 0.10, 302)
	fig3Case("fig3c", "Fig 3(c): link utilization histogram, SLA-based, k=30%", eval.SLABased, 0.30, 303)
}
