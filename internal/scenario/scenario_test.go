package scenario

import (
	"math"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/spf"
)

func TestInstanceBuildScalesToTarget(t *testing.T) {
	spec := instance.Spec{Topology: instance.TopoRandom, Kind: eval.LoadBased, TargetUtil: 0.6, Seed: 5}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := inst.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	// Under unit weights the average utilization must hit the target.
	r, err := e.EvaluateSTR(spf.Uniform(inst.G.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.AvgUtilization(inst.G); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("avg util = %v, want 0.6", got)
	}
	// The high-priority fraction survives scaling.
	etaH, etaL := inst.TH.Total(), inst.TL.Total()
	if got := etaH / (etaH + etaL); math.Abs(got-0.30) > 1e-9 {
		t.Fatalf("f = %v, want 0.30", got)
	}
}

func TestInstanceBuildCustomCapacity(t *testing.T) {
	spec := instance.Spec{Topology: instance.TopoISP, Capacity: 1000, TargetUtil: 0.5, Seed: 1}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range inst.G.Edges() {
		if e.Capacity != 1000 {
			t.Fatalf("arc %d capacity = %g, want 1000", e.ID, e.Capacity)
		}
	}
}

func TestInstanceBuildErrors(t *testing.T) {
	if _, err := (instance.Spec{Topology: "mesh"}).Build(); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := (instance.Spec{HPModel: "flood"}).Build(); err == nil {
		t.Error("unknown HP model accepted")
	}
	if _, err := (instance.Spec{TargetUtil: -1}).Build(); err == nil {
		t.Error("negative target util accepted")
	}
}

func TestInstanceBuildDeterministic(t *testing.T) {
	spec := instance.Spec{Seed: 9, TargetUtil: 0.5}
	a, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.TH.Total() != b.TH.Total() || a.TL.Total() != b.TL.Total() {
		t.Fatal("same seed, different matrices")
	}
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("same seed, different graphs")
	}
}

func TestCostRatio(t *testing.T) {
	if got := costRatio(10, 5); got != 2 {
		t.Fatalf("ratio = %v", got)
	}
	if got := costRatio(0, 0); got != 1 {
		t.Fatalf("0/0 = %v, want 1", got)
	}
	if got := costRatio(5, 0); !math.IsInf(got, 1) {
		t.Fatalf("5/0 = %v, want +Inf", got)
	}
}

func TestSubSeed(t *testing.T) {
	// Same triple, same seed; different triples, different seeds.
	if SubSeed(1, 0, 0) != SubSeed(1, 0, 0) {
		t.Fatal("SubSeed not deterministic")
	}
	seen := map[uint64]bool{}
	for p := 0; p < 10; p++ {
		for tr := 0; tr < 10; tr++ {
			s := SubSeed(42, p, tr)
			if seen[s] {
				t.Fatalf("collision at (%d,%d)", p, tr)
			}
			seen[s] = true
		}
	}
	// (point, trial) must not be interchangeable.
	if SubSeed(7, 1, 2) == SubSeed(7, 2, 1) {
		t.Fatal("SubSeed symmetric in point/trial")
	}
	// Different roots diverge.
	if SubSeed(1, 3, 4) == SubSeed(2, 3, 4) {
		t.Fatal("SubSeed ignores root")
	}
}
