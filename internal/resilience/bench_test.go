package resilience_test

// BenchmarkFailureSweep pins the cost of sweeping every single-link
// failure of the paper's 30-node instance, STR and DTR, through the
// incremental engine (disable → delta objective → repair). The external
// test package lets the benchmark build its instance through
// internal/instance without an import cycle.

import (
	"math/rand/v2"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/resilience"
	"dualtopo/internal/spf"
)

func benchSetup(b *testing.B) (*eval.Evaluator, []resilience.State, [3]spf.Weights) {
	b.Helper()
	spec := instance.Spec{Topology: instance.TopoRandom, Kind: eval.LoadBased, TargetUtil: 0.6, Seed: 1101}
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	e, err := inst.Evaluator()
	if err != nil {
		b.Fatal(err)
	}
	states, err := resilience.Enumerate(inst.G, resilience.Model{Kind: resilience.KindLink})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	var ws [3]spf.Weights
	for i := range ws {
		w := make(spf.Weights, inst.G.NumEdges())
		for a := range w {
			w[a] = 1 + rng.IntN(20)
		}
		ws[i] = w
	}
	return e, states, ws
}

func BenchmarkFailureSweep(b *testing.B) {
	b.Run("delta", func(b *testing.B) {
		e, states, ws := benchSetup(b)
		sw := resilience.NewSweeper(e, resilience.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs, err := resilience.CompareSchemes(sw, ws[0], ws[1], ws[2], states)
			if err != nil {
				b.Fatal(err)
			}
			if len(fs.STR) == 0 {
				b.Fatal("no surviving states")
			}
		}
		b.ReportMetric(float64(len(states)), "states")
	})
}
