package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dualtopo/internal/instance"
	"dualtopo/internal/search"
)

func validSpec() Spec {
	return Spec{
		Name:      "t",
		Topology:  TopologySpec{Family: instance.TopoRandom},
		Traffic:   TrafficSpec{HighModel: instance.HPRandom},
		Objective: ObjectiveSpec{Kind: "load"},
		Loads:     []float64{0.5, 0.7},
		Trials:    2,
		Seed:      11,
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := validSpec()
	s.Description = "round trip"
	s.Objective = ObjectiveSpec{Kind: "sla", ThetaMs: 30}
	s.Budget = BudgetSpec{Tier: "small", STRIters: 100}
	s.Failures = FailureSpec{Kind: "srlg", SRLGs: [][]int{{0, 1}, {2}}, Sample: 5, Seed: 3, Robust: true}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed spec:\nin  %+v\nout %+v", s, got)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x","topolgy":{"family":"random"}}`))
	if err == nil {
		t.Fatal("typo field accepted")
	}
	// The removed single_link alias is an unknown field too.
	_, err = Load(strings.NewReader(`{"name":"x","failures":{"single_link":true}}`))
	if err == nil || !strings.Contains(err.Error(), "single_link") {
		t.Fatalf("single_link: err = %v, want an unknown-field error", err)
	}
}

func TestSpecNormalizeDefaults(t *testing.T) {
	s := Spec{Name: "d"}.Normalize()
	if s.Topology.Family != instance.TopoRandom || s.Traffic.HighModel != instance.HPRandom {
		t.Fatalf("normalize = %+v", s)
	}
	if s.Objective.Kind != "load" || s.Budget.Tier != "tiny" {
		t.Fatalf("normalize = %+v", s)
	}
	if len(s.Loads) != 1 || s.Loads[0] != 0.6 || s.Trials != 1 {
		t.Fatalf("normalize = %+v", s)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"bad family", func(s *Spec) { s.Topology.Family = "mesh" }},
		{"bad model", func(s *Spec) { s.Traffic.HighModel = "flood" }},
		{"bad kind", func(s *Spec) { s.Objective.Kind = "latency" }},
		{"bad f", func(s *Spec) { s.Traffic.F = 1.5 }},
		{"bad k", func(s *Spec) { s.Traffic.K = -0.1 }},
		{"bad load", func(s *Spec) { s.Loads = []float64{0} }},
		{"huge load", func(s *Spec) { s.Loads = []float64{3} }},
		{"bad trials", func(s *Spec) { s.Trials = -1 }},
		{"bad tier", func(s *Spec) { s.Budget.Tier = "huge" }},
		{"negative theta", func(s *Spec) { s.Objective.ThetaMs = -1 }},
		{"negative override", func(s *Spec) { s.Budget.STRIters = -5 }},
		{"negative failure sample", func(s *Spec) { s.Failures.Sample = -1 }},
		{"bad failure kind", func(s *Spec) { s.Failures.Kind = "meteor" }},
		{"bad link count", func(s *Spec) { s.Failures = FailureSpec{Kind: "link", Count: 3} }},
		{"srlg without groups", func(s *Spec) { s.Failures = FailureSpec{Kind: "srlg"} }},
		{"robust without model", func(s *Spec) { s.Failures = FailureSpec{Robust: true} }},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestWorkListShapeAndSeeds(t *testing.T) {
	s := validSpec()
	items := s.WorkList()
	if len(items) != 4 { // 2 loads x 2 trials
		t.Fatalf("work list = %d items, want 4", len(items))
	}
	seeds := map[uint64]bool{}
	for i, it := range items {
		if it.Index != i {
			t.Errorf("item %d has index %d", i, it.Index)
		}
		if want := s.Loads[it.Point]; it.Spec.TargetUtil != want {
			t.Errorf("item %d target util = %g, want %g", i, it.Spec.TargetUtil, want)
		}
		if want := SubSeed(s.Seed, it.Point, it.Trial); it.Spec.Seed != want {
			t.Errorf("item %d seed = %d, want %d", i, it.Spec.Seed, want)
		}
		if seeds[it.Spec.Seed] {
			t.Errorf("item %d reuses seed %d", i, it.Spec.Seed)
		}
		seeds[it.Spec.Seed] = true
	}
	// Work-list order is point-major.
	if items[0].Point != 0 || items[1].Point != 0 || items[2].Point != 1 {
		t.Fatalf("order wrong: %+v", items)
	}
}

func TestResolveBudget(t *testing.T) {
	s := validSpec()
	s.Budget = BudgetSpec{Tier: "tiny", DTRIters: 50, DTRRefine: 30, STRIters: 99, SearchWorkers: 2}
	b, err := s.ResolveBudget()
	if err != nil {
		t.Fatal(err)
	}
	if b.DTR.N != 50 || b.DTR.K != 30 || b.STR.Iterations != 99 {
		t.Fatalf("overrides not applied: %+v", b)
	}
	if b.DTR.Workers != 2 || b.STR.Workers != 2 {
		t.Fatalf("search workers not applied: %+v", b)
	}
	// Tier alone keeps tier values.
	s.Budget = BudgetSpec{Tier: "tiny"}
	b, err = s.ResolveBudget()
	if err != nil {
		t.Fatal(err)
	}
	want := search.TinyBudget()
	if b.DTR.N != want.DTR.N || b.STR.Iterations != want.STR.Iterations {
		t.Fatalf("tier budget = %+v, want %+v", b, want)
	}
}

func TestPresetsLibrary(t *testing.T) {
	presets := Presets()
	if len(presets) < 8 {
		t.Fatalf("preset library has %d entries, want >= 8", len(presets))
	}
	families := map[string]bool{}
	models := map[string]bool{}
	kinds := map[string]bool{}
	withFailures, withoutFailures := false, false
	seen := map[string]bool{}
	for _, s := range presets {
		if seen[s.Name] {
			t.Errorf("duplicate preset name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Description == "" {
			t.Errorf("preset %q has no description", s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", s.Name, err)
		}
		n := s.Normalize()
		families[n.Topology.Family] = true
		models[n.Traffic.HighModel] = true
		kinds[n.Objective.Kind] = true
		if n.Failures.Enabled() {
			withFailures = true
		} else {
			withoutFailures = true
		}
	}
	// The library must span the paper's evaluation axes.
	for _, f := range []string{instance.TopoRandom, instance.TopoPowerLaw, instance.TopoISP} {
		if !families[f] {
			t.Errorf("no preset uses topology %q", f)
		}
	}
	for _, m := range []string{instance.HPRandom, instance.HPSinkUniform, instance.HPSinkLocal} {
		if !models[m] {
			t.Errorf("no preset uses HP model %q", m)
		}
	}
	for _, k := range []string{"load", "sla"} {
		if !kinds[k] {
			t.Errorf("no preset uses objective %q", k)
		}
	}
	if !withFailures || !withoutFailures {
		t.Error("library must include both with- and without-failure campaigns")
	}
	if _, ok := PresetByName("tiny"); !ok {
		t.Error("tiny preset missing")
	}
	if _, ok := PresetByName("nope"); ok {
		t.Error("unknown preset found")
	}
}

func TestPresetsAreDeepCopies(t *testing.T) {
	a, _ := PresetByName("tiny")
	orig := a.Loads[0]
	a.Loads[0] = 0.99
	b, _ := PresetByName("tiny")
	if b.Loads[0] != orig {
		t.Fatalf("mutating a returned preset corrupted the library: %g", b.Loads[0])
	}
	ps := Presets()
	ps[0].Loads[0] = 0.98
	c, _ := PresetByName(ps[0].Name)
	if c.Loads[0] == 0.98 {
		t.Fatal("mutating Presets() result corrupted the library")
	}
}

func TestFailureSpecModelDerivation(t *testing.T) {
	// The link kind defaults to one failed link.
	link := FailureSpec{Kind: "link", Sample: 5}
	m := link.Model(7)
	if m.Kind != "link" || m.Count != 1 || m.Sample != 5 {
		t.Fatalf("link model = %+v", m)
	}
	// A derived seed is per-trial but reproducible; a pinned seed wins.
	if link.Model(7).Seed != m.Seed {
		t.Fatal("derived sampling seed not reproducible")
	}
	if link.Model(8).Seed == m.Seed {
		t.Fatal("derived sampling seed ignores the trial seed")
	}
	pinned := FailureSpec{Kind: "node", Seed: 42}
	if got := pinned.Model(7).Seed; got != 42 {
		t.Fatalf("pinned seed = %d, want 42", got)
	}
	// Robust model caps an unbounded sweep at the default sample.
	if got := link.robustModel(7).Sample; got != 5 {
		t.Fatalf("robust sample = %d, want the spec's 5", got)
	}
	unbounded := FailureSpec{Kind: "link"}
	if got := unbounded.robustModel(7).Sample; got != RobustDefaultSample {
		t.Fatalf("robust sample = %d, want default %d", got, RobustDefaultSample)
	}
}

func TestWorkListCarriesRobustModel(t *testing.T) {
	s := validSpec()
	s.Failures = FailureSpec{Kind: "link", Robust: true}
	items := s.WorkList()
	for i, it := range items {
		if it.Spec.Robust == nil {
			t.Fatalf("item %d has no robust model", i)
		}
		if it.Spec.Robust.Sample != RobustDefaultSample {
			t.Fatalf("item %d robust sample = %d", i, it.Spec.Robust.Sample)
		}
	}
	if items[0].Spec.Robust.Seed == items[1].Spec.Robust.Seed {
		t.Fatal("trials share a robust sampling seed")
	}
	s.Failures.Robust = false
	for i, it := range s.WorkList() {
		if it.Spec.Robust != nil {
			t.Fatalf("item %d of non-robust campaign has a robust model", i)
		}
	}
}
