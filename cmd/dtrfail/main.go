// Command dtrfail runs a failure sweep over one optimized instance: it
// builds the topology and traffic, optimizes STR and DTR weights, then
// evaluates every failure state of the chosen model (single/dual link, node,
// or SRLG) through the incremental sweep engine and reports the
// low-priority cost degradation of both schemes.
//
// Usage:
//
//	dtrfail -topology random -load 0.6 -kind link
//	dtrfail -topology isp -kind link -count 2 -sample 40 -budget small
//	dtrfail -kind link -count 2 -robust
//	dtrfail -kind srlg -srlgs "0,1,2;3,4"
//	dtrfail -mode verify        # assert delta == full on every state
//
// Note on -kind node: a node failure strands every demand sourced at or
// destined to the failed node, and the bundled instances give every node
// gravity-model demand, so every node state disconnects and the sweep
// errors out. Node sweeps are meant for instances with demand-free transit
// nodes (see the resilience package tests).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/obs"
	"dualtopo/internal/render"
	"dualtopo/internal/resilience"
	"dualtopo/internal/scenario"
	"dualtopo/internal/search"
	"dualtopo/internal/stats"
	"dualtopo/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtrfail: ")

	topology := flag.String("topology", "random", "topology family: "+topo.FamilyList())
	nodes := flag.Int("nodes", 0, "synthetic topology nodes (0 = paper's 30)")
	links := flag.Int("links", 0, "synthetic topology links (0 = paper default)")
	load := flag.Float64("load", 0.6, "target average link utilization")
	objective := flag.String("objective", "load", "objective kind: load|sla")
	seed := flag.Uint64("seed", 1, "instance seed")
	budget := flag.String("budget", "tiny", "search budget tier: smoke|tiny|small|paper")
	kind := flag.String("kind", "link", "failure model: link|node|srlg")
	count := flag.Int("count", 1, "simultaneous link failures for -kind link (1 or 2)")
	srlgs := flag.String("srlgs", "", `SRLG groups as link indexes, e.g. "0,1,2;3,4"`)
	sample := flag.Int("sample", 0, "seeded uniform sample of states (0 = all)")
	fseed := flag.Uint64("fseed", 1, "failure sampling seed")
	robust := flag.Bool("robust", false, "make the DTR search failure-aware (scored on the same model)")
	mode := flag.String("mode", "delta", "sweep mode: delta|verify (verify re-evaluates every state from scratch too)")
	routeWorkers := flag.Int("route-workers", 0, "SPF workers for from-scratch routing: verify mode's evaluations and the first route of each routing state the sweep drives; 0 = auto, 1 = sequential, n > 1 = fixed (results are identical)")
	guide := flag.Float64("guide", 0, "guided-step probability in [0,1] for the DTR search (0 = paper's blind sampling)")
	prune := flag.Bool("prune", false, "enable the routing-invariance candidate prune in the DTR search")
	var obsCLI obs.CLI
	obsCLI.RegisterFlags(flag.CommandLine)
	flag.Parse()

	manifest := obs.NewManifest("dtrfail", os.Args[1:])
	manifest.SetSeed(*seed)
	if err := obsCLI.Start(manifest); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := obsCLI.Stop(); err != nil {
			log.Fatal(err)
		}
	}()

	objKind, err := eval.ParseKind(*objective)
	if err != nil {
		log.Fatal(err)
	}
	b, err := search.BudgetByName(*budget)
	if err != nil {
		log.Fatal(err)
	}
	b.DTR.Guide = *guide
	b.DTR.Prune = *prune
	model := resilience.Model{
		Kind:   *kind,
		Count:  *count,
		SRLGs:  parseSRLGs(*srlgs),
		Sample: *sample,
		Seed:   *fseed,
	}
	if err := model.Validate(); err != nil {
		log.Fatal(err)
	}
	var opts resilience.Options
	switch *mode {
	case "delta":
	case "verify":
		opts.Verify = true
	default:
		log.Fatalf("unknown mode %q (delta|verify)", *mode)
	}

	spec := instance.Spec{
		Topology:   *topology,
		Nodes:      *nodes,
		Links:      *links,
		Kind:       objKind,
		TargetUtil: *load,
		Seed:       *seed,
	}
	if *robust {
		rm := model
		if rm.Sample == 0 {
			rm.Sample = scenario.RobustDefaultSample // bound the per-candidate sweep cost
		}
		spec.Robust = &rm
	}

	manifest.SpecHash = obs.SpecHash(struct {
		Spec  instance.Spec
		Model resilience.Model
		Mode  string
	}{spec, model, *mode})
	if line, err := manifest.JSONLine(); err == nil {
		os.Stderr.Write(line) //nolint:errcheck
	}

	fmt.Fprintf(os.Stderr, "optimizing %s (budget %s)...\n", spec.Describe(), *budget)
	pt, err := scenario.RunPoint(spec, b)
	if err != nil {
		log.Fatal(err)
	}
	states, err := resilience.Enumerate(pt.Inst.G, model)
	if err != nil {
		log.Fatal(err)
	}
	// Sweep on the evaluator the searches ran on; -route-workers bounds its
	// from-scratch routes.
	pt.Eval.SetRouteWorkers(*routeWorkers)
	sw := resilience.NewSweeper(pt.Eval, opts)
	start := time.Now()
	fs, err := resilience.CompareSchemes(sw, pt.STR.W, pt.DTR.WH, pt.DTR.WL, states)
	if err != nil {
		if model.Kind == resilience.KindNode {
			log.Fatalf("%v\n(node failures strand every demand at the failed node; with gravity "+
				"demand on every node, node sweeps need instances with demand-free transit nodes)", err)
		}
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	sum := fs.Summary(model.String())
	fmt.Printf("failure model %s: %d states (%d disconnecting) swept in %s (%s mode)\n",
		sum.Model, sum.Evaluated, sum.Disconnecting, elapsed.Round(time.Microsecond), *mode)
	row := func(name string, xs []float64, cs resilience.ClassSummary) []string {
		return []string{
			name,
			fmt.Sprintf("%.3f", cs.MeanDegr),
			fmt.Sprintf("%.3f", cs.P50Degr),
			fmt.Sprintf("%.3f", cs.P95Degr),
			fmt.Sprintf("%.3f", stats.Max(xs)),
			cs.WorstState,
		}
	}
	fmt.Println(render.Table(
		[]string{"scheme", "mean", "p50", "p95", "max", "worst state"},
		[][]string{
			row("STR", fs.STR, sum.STR),
			row("DTR", fs.DTR, sum.DTR),
		}))
	fmt.Printf("DTR keeps the lower absolute ΦL after %d/%d surviving failures\n",
		sum.DTRStillBetter, len(fs.STR))
	printRobust(pt.DTR.Robust)
}

func printRobust(rs *search.RobustScore) {
	if rs == nil {
		return
	}
	fmt.Printf("robust search: %d states scored per candidate; mean ΦL %.4g, worst ΦL %.4g (%s), composite %.4g\n",
		rs.States, rs.MeanPhiL, rs.WorstPhiL, rs.WorstState, rs.Composite)
}

// parseSRLGs decodes "0,1,2;3,4" into [][]int{{0,1,2},{3,4}}.
func parseSRLGs(s string) [][]int {
	if s == "" {
		return nil
	}
	var groups [][]int
	for _, part := range strings.Split(s, ";") {
		var grp []int
		for _, tok := range strings.Split(part, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			li, err := strconv.Atoi(tok)
			if err != nil {
				log.Fatalf("bad SRLG link index %q", tok)
			}
			grp = append(grp, li)
		}
		if len(grp) > 0 {
			groups = append(groups, grp)
		}
	}
	return groups
}
