package instance

import (
	"math"
	"math/rand/v2"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
)

func TestSpecDefaults(t *testing.T) {
	s := Spec{}
	s.paperDefaults()
	if s.Topology != TopoRandom || s.Nodes != 30 || s.Links != 75 {
		t.Fatalf("defaults = %+v", s)
	}
	if s.F != 0.30 || s.K != 0.10 || s.ThetaMs != 25 {
		t.Fatalf("defaults = %+v", s)
	}
	if s.Capacity != 500 {
		t.Fatalf("default capacity = %g, want 500", s.Capacity)
	}
	pl := Spec{Topology: TopoPowerLaw}
	pl.paperDefaults()
	if pl.Links != 81 {
		t.Fatalf("power-law default links = %d, want 81", pl.Links)
	}
}

// TestFromGraph checks the caller-graph path: the same scaling and options
// as Build, and Build's checks on the low-priority sink count.
func TestFromGraph(t *testing.T) {
	g, err := topo.Generate(TopoISP, topo.Params{}, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	inst, err := Spec{Kind: eval.SLABased, TargetUtil: 0.5, LPSinks: n, Seed: 3}.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if inst.G != g || inst.Opts.Kind != eval.SLABased || inst.Opts.SLA.ThetaMs != 25 {
		t.Fatalf("instance = %+v", inst)
	}
	e, err := inst.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.EvaluateSTR(spf.Uniform(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.AvgUtilization(g); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("avg util = %v, want 0.5", got)
	}
	for _, sinks := range []int{-1, n + 1} {
		if _, err := (Spec{LPSinks: sinks}).FromGraph(g); err == nil {
			t.Errorf("lp sinks %d on %d nodes accepted", sinks, n)
		}
	}
}
