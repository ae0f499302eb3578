package instance

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
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

// TestBuildRejectsNonFinite feeds NaN, +Inf and -Inf into every real-valued
// spec field. Each must be refused with an error naming the field, on the
// generated and on the caller-graph path alike; NaN in particular used to
// pass every range check written as a rejection (x <= 0).
func TestBuildRejectsNonFinite(t *testing.T) {
	g, err := topo.Generate(TopoISP, topo.Params{}, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	fields := []struct {
		name string
		set  func(*Spec, float64)
	}{
		{"TargetUtil", func(s *Spec, v float64) { s.TargetUtil = v }},
		{"ThetaMs", func(s *Spec, v float64) { s.ThetaMs = v }},
		{"Capacity", func(s *Spec, v float64) { s.Capacity = v }},
		{"F", func(s *Spec, v float64) { s.F = v }},
		{"K", func(s *Spec, v float64) { s.K = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := Spec{Kind: eval.SLABased, Seed: 1}
			f.set(&s, v)
			want := fmt.Sprintf("%s=%g", f.name, v)
			for path, build := range map[string]func() (*Instance, error){
				"Build":     s.Build,
				"FromGraph": func() (*Instance, error) { return s.FromGraph(g) },
			} {
				if _, err := build(); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s with %s: err = %v, want one naming %q", path, want, err, want)
				}
			}
		}
	}
}
