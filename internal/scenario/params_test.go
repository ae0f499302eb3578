package scenario

// Tests for the generator-registry parameterization of campaign specs: the
// params objects on TopologySpec/TrafficSpec, their validation against the
// topo/traffic registries, and end-to-end determinism of the new families
// through the engine.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dualtopo/internal/instance"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

func paramSpec(mutate func(*Spec)) Spec {
	s := validSpec()
	mutate(&s)
	return s
}

func TestSpecValidateUnknownFamilyEnumeratesRegistry(t *testing.T) {
	err := paramSpec(func(s *Spec) { s.Topology.Family = "mesh" }).Validate()
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	// The message must come from the registry, not a hardcoded list.
	for _, fam := range []string{"random", "waxman", "torus", "hier", "import"} {
		if !strings.Contains(err.Error(), fam) {
			t.Errorf("unknown-family error %q does not list %q", err, fam)
		}
	}
	err = paramSpec(func(s *Spec) { s.Traffic.HighModel = "flood" }).Validate()
	if err == nil {
		t.Fatal("unknown HP model accepted")
	}
	for _, m := range []string{"random", "hotspot", "gravity", "uniform"} {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("unknown-model error %q does not list %q", err, m)
		}
	}
}

func TestSpecValidateParams(t *testing.T) {
	good := filepath.Join(t.TempDir(), "net.adj")
	if err := os.WriteFile(good, []byte("a b 10\nb c 10\nc a 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"waxman defaults", func(s *Spec) { s.Topology = TopologySpec{Family: instance.TopoWaxman} }},
		{"waxman tuned", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoWaxman, Params: &topo.Params{Nodes: 20, Alpha: 0.5, Beta: 0.4}}
		}},
		{"torus sized", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoTorus, Params: &topo.Params{Rows: 4, Cols: 4}}
		}},
		{"hier fan-out", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoHier, Params: &topo.Params{Pops: 4, RoutersPerPop: 3}}
		}},
		{"import path", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoImport, Params: &topo.Params{Path: good}}
		}},
		{"hotspot traffic", func(s *Spec) {
			s.Traffic = TrafficSpec{HighModel: instance.HPHotspot, Params: &traffic.Params{HotspotFraction: 0.2, HotspotBoost: 4}}
		}},
		{"legacy shorthand still wins over nothing", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoRandom, Nodes: 20, Links: 40}
		}},
	}
	for _, tc := range valid {
		if err := paramSpec(tc.mutate).Validate(); err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
	}

	invalid := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"waxman alpha out of range", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoWaxman, Params: &topo.Params{Alpha: 1.5}}
		}},
		{"waxman links budget", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoWaxman, Links: 40}
		}},
		{"import without path", func(s *Spec) { s.Topology = TopologySpec{Family: instance.TopoImport} }},
		{"import bad path", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoImport, Params: &topo.Params{Path: "/nonexistent/x.gml"}}
		}},
		{"grid size contradiction", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoGrid, Nodes: 30, Params: &topo.Params{Rows: 4, Cols: 4}}
		}},
		{"bad delay model", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoRandom, Params: &topo.Params{DelayModel: "gaussian"}}
		}},
		{"hotspot fraction out of range", func(s *Spec) {
			s.Traffic = TrafficSpec{HighModel: instance.HPHotspot, Params: &traffic.Params{HotspotFraction: 2}}
		}},
		{"hotspot boost too low", func(s *Spec) {
			s.Traffic = TrafficSpec{HighModel: instance.HPHotspot, Params: &traffic.Params{HotspotBoost: 0.5}}
		}},
		{"negative capacity in params", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoRandom, Params: &topo.Params{CapacityMbps: -100}}
		}},
		{"negative nodes in params", func(s *Spec) {
			s.Topology = TopologySpec{Family: instance.TopoRandom, Params: &topo.Params{Nodes: -3}}
		}},
	}
	for _, tc := range invalid {
		if err := paramSpec(tc.mutate).Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSpecJSONRoundTripWithParams(t *testing.T) {
	s := validSpec()
	s.Topology = TopologySpec{Family: instance.TopoWaxman, Params: &topo.Params{Nodes: 24, Alpha: 0.4, Beta: 0.3, DelayModel: topo.DelayUniform}}
	s.Traffic = TrafficSpec{HighModel: instance.HPHotspot, Params: &traffic.Params{F: 0.2, HotspotFraction: 0.15, HotspotBoost: 5}}
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
	// Unknown params keys must fail like any other typo.
	if _, err := Load(strings.NewReader(`{"name":"x","topology":{"family":"waxman","params":{"alhpa":0.4}}}`)); err == nil {
		t.Fatal("typo params key accepted")
	}
}

func TestWorkListThreadsParams(t *testing.T) {
	s := validSpec()
	s.Topology = TopologySpec{Family: instance.TopoHier, Params: &topo.Params{Pops: 4, RoutersPerPop: 3}}
	s.Traffic = TrafficSpec{HighModel: instance.HPHotspot, F: 0.2}
	items := s.WorkList()
	if len(items) == 0 {
		t.Fatal("empty work list")
	}
	for _, it := range items {
		if it.Spec.TopoParams == nil || it.Spec.TopoParams.Pops != 4 || it.Spec.TopoParams.RoutersPerPop != 3 {
			t.Fatalf("work item lost topology params: %+v", it.Spec.TopoParams)
		}
		if it.Spec.HPParams == nil || it.Spec.HPParams.F != 0.2 {
			t.Fatalf("work item lost traffic params: %+v", it.Spec.HPParams)
		}
		if it.Spec.HPModel != instance.HPHotspot {
			t.Fatalf("work item lost HP model: %q", it.Spec.HPModel)
		}
	}
}

// TestBuildNewFamilies builds one instance per new generator pairing to
// prove every family is reachable end to end from an instance.Spec.
func TestBuildNewFamilies(t *testing.T) {
	cases := []struct {
		name string
		spec instance.Spec
	}{
		{"waxman+uniform", instance.Spec{
			Topology: instance.TopoWaxman, TopoParams: &topo.Params{Nodes: 16},
			HPModel: instance.HPUniform, TargetUtil: 0.5, Seed: 21,
		}},
		{"ring+random", instance.Spec{
			Topology: instance.TopoRing, TopoParams: &topo.Params{Nodes: 12, Chords: 3},
			HPModel: instance.HPRandom, TargetUtil: 0.5, Seed: 22,
		}},
		{"grid+gravity", instance.Spec{
			Topology: instance.TopoGrid, TopoParams: &topo.Params{Rows: 3, Cols: 4},
			HPModel: instance.HPGravity, TargetUtil: 0.5, Seed: 23,
		}},
		{"torus+hotspot", instance.Spec{
			Topology: instance.TopoTorus, TopoParams: &topo.Params{Rows: 3, Cols: 4},
			HPModel: instance.HPHotspot, TargetUtil: 0.5, Seed: 24,
		}},
		{"hier+gravity", instance.Spec{
			Topology: instance.TopoHier, TopoParams: &topo.Params{Pops: 3, RoutersPerPop: 3},
			HPModel: instance.HPGravity, TargetUtil: 0.5, Seed: 25,
		}},
	}
	for _, tc := range cases {
		inst, err := tc.spec.Build()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !inst.G.StronglyConnected() {
			t.Errorf("%s: disconnected", tc.name)
		}
		if inst.TH.Total() <= 0 || inst.TL.Total() <= 0 {
			t.Errorf("%s: empty traffic", tc.name)
		}
		if _, err := inst.Evaluator(); err != nil {
			t.Errorf("%s: evaluator: %v", tc.name, err)
		}
	}
}

// TestNewFamilyCampaignDeterministicAcrossWorkers extends the engine's
// determinism contract to the registry families: a waxman+hotspot campaign
// must stream identical results at any worker count.
func TestNewFamilyCampaignDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{
		Name:      "waxman-hotspot-determinism",
		Topology:  TopologySpec{Family: instance.TopoWaxman, Params: &topo.Params{Nodes: 14, Alpha: 0.4}},
		Traffic:   TrafficSpec{HighModel: instance.HPHotspot, Params: &traffic.Params{F: 0.2}},
		Objective: ObjectiveSpec{Kind: "load"},
		Loads:     []float64{0.6},
		Trials:    3,
		Seed:      77,
	}
	var blobs [][]byte
	var streams []string
	for _, workers := range []int{1, 3, 1} {
		var stream bytes.Buffer
		res, err := Run(spec, Options{
			Workers: workers,
			OnTrial: func(tr TrialResult) { stream.WriteString(trKey(tr)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := res.AggregatesJSON()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		streams = append(streams, stream.String())
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("aggregates depend on worker count:\n%s\nvs\n%s", blobs[0], blobs[1])
	}
	if !bytes.Equal(blobs[0], blobs[2]) {
		t.Errorf("aggregates differ between repeat runs:\n%s\nvs\n%s", blobs[0], blobs[2])
	}
	if streams[0] != streams[1] || streams[0] != streams[2] {
		t.Error("trial stream depends on worker count")
	}
}

func TestPresetsCoverNewGenerators(t *testing.T) {
	families := map[string]bool{}
	models := map[string]bool{}
	for _, s := range Presets() {
		n := s.Normalize()
		families[n.Topology.Family] = true
		models[n.Traffic.HighModel] = true
	}
	for _, f := range []string{instance.TopoWaxman, instance.TopoHier, instance.TopoTorus} {
		if !families[f] {
			t.Errorf("no preset uses new family %q", f)
		}
	}
	for _, m := range []string{instance.HPHotspot, instance.HPGravity} {
		if !models[m] {
			t.Errorf("no preset uses new HP model %q", m)
		}
	}
}

func TestPresetParamsAreDeepCopies(t *testing.T) {
	a, ok := PresetByName("waxman-load")
	if !ok {
		t.Fatal("waxman-load preset missing")
	}
	if a.Topology.Params == nil {
		t.Fatal("waxman-load has no params")
	}
	orig := a.Topology.Params.Alpha
	a.Topology.Params.Alpha = 0.99
	b, _ := PresetByName("waxman-load")
	if b.Topology.Params.Alpha != orig {
		t.Fatal("mutating a preset's params corrupted the library")
	}
}
