package experiments

import (
	"math"
	"strings"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/scenario"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper must be registered.
	want := []string{
		"fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f",
		"fig3a", "fig3b", "fig3c", "fig4", "fig5a", "fig5b", "fig6",
		"fig7", "fig8a", "fig8b", "fig9", "table1", "extfail",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"smoke", "tiny", "small", "paper", "TINY"} {
		if _, err := PresetByName(name); err != nil {
			t.Errorf("PresetByName(%q): %v", name, err)
		}
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", Tiny()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestLookup(t *testing.T) {
	r, ok := Lookup("fig2a")
	if !ok || r.ID != "fig2a" || r.Title == "" {
		t.Fatalf("Lookup(fig2a) = %+v, %v", r, ok)
	}
	if _, ok := Lookup("zzz"); ok {
		t.Fatal("Lookup(zzz) found")
	}
}

func TestLinspace(t *testing.T) {
	xs := linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Fatalf("linspace = %v", xs)
		}
	}
	if xs := linspace(2, 4, 1); len(xs) != 1 || xs[0] != 3 {
		t.Fatalf("linspace n=1 = %v", xs)
	}
}

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
	r, err := e.EvaluateSTR(uniformWeights(inst.G.NumEdges()))
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

// TestFig2aMatchesScenarioEngine drives the fig2a sweep both through the
// experiment registry and directly through the scenario engine's point
// runner, asserting identical reported metrics: the experiment layer is a
// curated scenario, not a parallel implementation.
func TestFig2aMatchesScenarioEngine(t *testing.T) {
	p := Tiny()
	rep, err := Run("fig2a", p)
	if err != nil {
		t.Fatal(err)
	}
	base := instance.Spec{Topology: instance.TopoRandom, Kind: eval.LoadBased}
	specs := loadSweepSpecs(base, linspace(0.50, 0.90, p.Points), 201)
	points, err := scenario.RunPoints(specs, p.budget(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rep.Series[0].Y) {
		t.Fatalf("points = %d, series = %d", len(points), len(rep.Series[0].Y))
	}
	for i, pt := range points {
		if rep.Series[0].Y[i] != pt.RH || rep.Series[1].Y[i] != pt.RL {
			t.Errorf("point %d: experiment (RH=%v, RL=%v) != engine (RH=%v, RL=%v)",
				i, rep.Series[0].Y[i], rep.Series[1].Y[i], pt.RH, pt.RL)
		}
		if rep.Series[0].X[i] != pt.MeasuredUtil {
			t.Errorf("point %d: measured util %v != %v", i, rep.Series[0].X[i], pt.MeasuredUtil)
		}
	}
}

// TestTriangleExperimentExact runs fig1 and checks the paper's exact values
// appear in the report.
func TestTriangleExperimentExact(t *testing.T) {
	rep, err := Run("fig1", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	// Joint-cost choices: α=35 keeps the direct route, α=30 flips.
	if !strings.Contains(out, "direct (A-C)") || !strings.Contains(out, "even split") {
		t.Fatalf("joint-cost choices missing:\n%s", out)
	}
	// DTR search must land on ⟨1/3, 11/9⟩ = ⟨0.3333, 1.222⟩.
	if !strings.Contains(out, "1.222") {
		t.Fatalf("DTR optimum missing:\n%s", out)
	}
}

// TestFig2aTinyShape runs the fig2a sweep at Tiny preset and checks the
// paper's qualitative claims: RH ≈ 1, RL ≥ RH.
func TestFig2aTinyShape(t *testing.T) {
	rep, err := Run("fig2a", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(rep.Series))
	}
	rh := rep.Series[0]
	rl := rep.Series[1]
	for i := range rh.Y {
		if rh.Y[i] < 0.5 || rh.Y[i] > 2.0 {
			t.Errorf("RH[%d] = %v, want ~1", i, rh.Y[i])
		}
		if rl.Y[i] < 0.8*rh.Y[i] {
			t.Errorf("RL[%d]=%v much below RH=%v; DTR should help L most", i, rl.Y[i], rh.Y[i])
		}
	}
}

// TestFig9Tiny checks fig9 produces all three θ rows.
func TestFig9Tiny(t *testing.T) {
	rep, err := Run("fig9", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 3 {
		t.Fatalf("fig9 table = %+v", rep.Tables)
	}
	if len(rep.Series) != 6 {
		t.Fatalf("fig9 series = %d, want 6", len(rep.Series))
	}
}

// TestTable1Tiny checks the relaxation table renders all topologies and the
// relaxed rows hold RL,30% ≤ RL,5% ≤ RL (within formatting).
func TestTable1Tiny(t *testing.T) {
	rep, err := Run("table1", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("tables = %d, want 3", len(rep.Tables))
	}
	for _, tb := range rep.Tables {
		if len(tb.Rows) != 4 {
			t.Fatalf("table %q rows = %d, want 4 (RL, RL5, RL30, AD)", tb.Title, len(tb.Rows))
		}
		if tb.Rows[0][0] != "RL" || tb.Rows[3][0] != "AD" {
			t.Fatalf("row labels wrong: %v", tb.Rows)
		}
	}
}

// TestFig3Tiny checks histogram generation: counts conserve the arc count
// for both schemes.
func TestFig3Tiny(t *testing.T) {
	rep, err := Run("fig3a", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 2 {
		t.Fatalf("series = %d", len(rep.Series))
	}
	for _, s := range rep.Series {
		total := 0.0
		for _, y := range s.Y {
			total += y
		}
		if total != 150 {
			t.Fatalf("%s histogram total = %g, want 150 arcs", s.Name, total)
		}
	}
}

// TestExtFailTiny checks the failure-robustness extension: degradation
// factors at least 1 on average and full failure coverage.
func TestExtFailTiny(t *testing.T) {
	rep, err := Run("extfail", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 2 {
		t.Fatalf("extfail table shape: %+v", rep.Tables)
	}
	for _, row := range rep.Tables[0].Rows {
		if row[0] != "STR" && row[0] != "DTR" {
			t.Fatalf("unexpected scheme %q", row[0])
		}
	}
}

// TestFig6Tiny checks the sorted H-utilization series is non-increasing.
func TestFig6Tiny(t *testing.T) {
	rep, err := Run("fig6", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+1e-9 {
				t.Fatalf("%s not sorted descending at %d: %v > %v", s.Name, i, s.Y[i], s.Y[i-1])
			}
		}
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "x", Title: "t", XLabel: "load",
		Tables: []TableBlock{{Title: "tb", Header: []string{"a"}, Rows: [][]string{{"1"}}}},
		Notes:  []string{"hello"}}
	out := r.String()
	for _, want := range []string{"== x: t ==", "tb", "hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func uniformWeights(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}
