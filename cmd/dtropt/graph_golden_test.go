package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/graph_instances.json")

// goldenInstance pins what the -graph path synthesizes on a fixed topology:
// both matrices (every active destination column, in order) and the
// evaluator options.
type goldenInstance struct {
	TH   string          `json:"th"`
	TL   string          `json:"tl"`
	Opts json.RawMessage `json:"opts"`
}

func hashMatrix(m *traffic.Matrix) string {
	h := sha256.New()
	var col []float64
	for _, t := range m.ActiveDestinations() {
		col = m.DemandsTo(t, col)
		fmt.Fprintln(h, t, col)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGraphInstanceGolden pins the instance dtropt -graph builds on the
// Abilene topology for dense gravity, sink-limited gravity and an SLA run
// with sink-model high-priority traffic.
func TestGraphInstanceGolden(t *testing.T) {
	g, err := topo.Generate("import", topo.Params{Path: "../../examples/campaigns/topologies/abilene.gml"}, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "abilene.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The flag defaults, then each case's overrides.
	base := instance.Spec{Kind: eval.LoadBased, ThetaMs: 25, F: 0.30, K: 0.10, HPModel: "random", TargetUtil: 0.6, Seed: 1}
	sinks := base
	sinks.LPSinks = 4
	sla := base
	sla.Kind, sla.HPModel = eval.SLABased, "sink-uniform"
	cases := map[string]instance.Spec{"dense-load": base, "lp-sinks-4": sinks, "sla-sink-uniform": sla}

	got := map[string]goldenInstance{}
	for name, spec := range cases {
		inst, err := graphInstance(path, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts, err := json.Marshal(inst.Opts)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = goldenInstance{TH: hashMatrix(inst.TH), TL: hashMatrix(inst.TL), Opts: opts}
	}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	golden := filepath.Join("testdata", "graph_instances.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("-graph instances moved:\ngot  %s\nwant %s", data, want)
	}
}
