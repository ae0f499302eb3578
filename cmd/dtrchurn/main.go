// Command dtrchurn drives churn timelines — link flaps, node outages,
// weight reconfigurations — through optimized dual-topology routings and
// reports how the SLA degrades while the network is in flux.
//
// Usage:
//
//	dtrchurn generate -topology torus -link-mtbf 300 -o trace.jsonl
//	dtrchurn replay -link-mtbf 300 -weight-rate 0.05
//	dtrchurn replay -trace trace.jsonl -convergence -o records.jsonl
//	dtrchurn replay -counterfactual            # per-event what-if vs intact
//	dtrchurn replay -verify                    # assert delta == full per event
//	dtrchurn compare -link-mtbf 120            # instantaneous vs convergence
//
// generate writes a deterministic JSONL event trace for the instance's
// topology (a manifest-style header line, then one event per line); the
// same trace replays bit-identically on any machine.
//
// replay optimizes STR and DTR weights for the instance, then steps the
// timeline through the delta-routing replay engine, streaming one JSON
// record per event (prefixed by an observability manifest line) and
// closing with a {"churn_summary": ...} line holding the time-integrated
// SLA-violation and transient-loss masses. SIGINT/SIGTERM interrupts the
// replay cleanly: completed records are flushed, the summary line is
// marked partial, and the exit status is non-zero.
//
// compare replays the same timeline twice — instantaneous reconvergence
// vs OSPF-convergence emulation — and reports the transient traffic mass
// the instantaneous model misses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"dualtopo/internal/churn"
	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/obs"
	"dualtopo/internal/scenario"
	"dualtopo/internal/search"
	"dualtopo/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtrchurn: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "generate":
		os.Exit(cmdGenerate(os.Args[2:]))
	case "replay":
		os.Exit(cmdReplay(os.Args[2:]))
	case "compare":
		os.Exit(cmdCompare(os.Args[2:]))
	case "-h", "--help", "help":
		usage()
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  dtrchurn generate [flags]   write a deterministic churn event trace (JSONL)
  dtrchurn replay   [flags]   optimize the instance and replay churn through it
  dtrchurn compare  [flags]   instantaneous vs OSPF-convergence replay

common flags (see -h of each subcommand):
  instance: -topology -nodes -links -load -objective -seed -budget
  churn:    -horizon -link-mtbf -link-mttr -node-mtbf -node-mttr
            -weight-rate -intensity -gen-seed | -trace file.jsonl
`)
}

// instanceConfig selects and optimizes the problem instance.
type instanceConfig struct {
	topology  string
	nodes     int
	links     int
	load      float64
	objective string
	seed      uint64
	budget    string
}

func (c *instanceConfig) register(fs *flag.FlagSet) {
	fs.StringVar(&c.topology, "topology", "torus", "topology family: "+topo.FamilyList())
	fs.IntVar(&c.nodes, "nodes", 0, "synthetic topology nodes (0 = family default)")
	fs.IntVar(&c.links, "links", 0, "synthetic topology links (0 = family default)")
	fs.Float64Var(&c.load, "load", 0.6, "target average link utilization")
	fs.StringVar(&c.objective, "objective", "sla", "objective kind: load|sla")
	fs.Uint64Var(&c.seed, "seed", 1, "instance seed")
	fs.StringVar(&c.budget, "budget", "tiny", "search budget tier: smoke|tiny|small|paper")
}

func (c *instanceConfig) spec() (instance.Spec, error) {
	kind, err := eval.ParseKind(c.objective)
	if err != nil {
		return instance.Spec{}, err
	}
	return instance.Spec{
		Topology:   c.topology,
		Nodes:      c.nodes,
		Links:      c.links,
		Kind:       kind,
		TargetUtil: c.load,
		Seed:       c.seed,
	}, nil
}

// genConfig parameterizes the timeline generator.
type genConfig struct {
	horizon    float64
	linkMTBF   float64
	linkMTTR   float64
	nodeMTBF   float64
	nodeMTTR   float64
	weightRate float64
	intensity  float64
	genSeed    uint64
	trace      string
}

func (c *genConfig) register(fs *flag.FlagSet, withTrace bool) {
	fs.Float64Var(&c.horizon, "horizon", 600, "simulated duration in seconds")
	fs.Float64Var(&c.linkMTBF, "link-mtbf", 300, "mean link up-time between failures, seconds (0 = no link flaps)")
	fs.Float64Var(&c.linkMTTR, "link-mttr", 10, "mean link repair time, seconds")
	fs.Float64Var(&c.nodeMTBF, "node-mtbf", 0, "mean node up-time between outages, seconds (0 = no node churn); a downed node strands its own demand, so every record until it returns is disconnected")
	fs.Float64Var(&c.nodeMTTR, "node-mttr", 60, "mean node repair time, seconds")
	fs.Float64Var(&c.weightRate, "weight-rate", 0, "operator weight-reset rate, events/second")
	fs.Float64Var(&c.intensity, "intensity", 1, "global churn multiplier (scales failure and reset rates)")
	fs.Uint64Var(&c.genSeed, "gen-seed", 1, "timeline generator seed")
	if withTrace {
		fs.StringVar(&c.trace, "trace", "", "replay this JSONL event trace instead of generating one")
	}
}

func (c *genConfig) genSpec() churn.GenSpec {
	return churn.GenSpec{
		Seed:       c.genSeed,
		Horizon:    c.horizon,
		LinkMTBF:   c.linkMTBF,
		LinkMTTR:   c.linkMTTR,
		NodeMTBF:   c.nodeMTBF,
		NodeMTTR:   c.nodeMTTR,
		WeightRate: c.weightRate,
		Intensity:  c.intensity,
	}
}

// timeline produces the events to replay on g: a read-and-validated trace
// file when -trace is set, a generated timeline otherwise.
func (c *genConfig) timeline(inst *instance.Instance) (*churn.Timeline, error) {
	if c.trace != "" {
		f, err := os.Open(c.trace)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tl, err := churn.ReadTrace(f)
		if err != nil {
			return nil, err
		}
		if err := tl.Validate(inst.G); err != nil {
			return nil, fmt.Errorf("%s: %w", c.trace, err)
		}
		return tl, nil
	}
	return churn.Generate(inst.G, c.genSpec())
}

func cmdGenerate(args []string) int {
	var inst instanceConfig
	var gen genConfig
	out := ""
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	inst.register(fs)
	gen.register(fs, false)
	fs.StringVar(&out, "o", "", "write the trace to this file instead of stdout")
	fs.Parse(args)

	spec, err := inst.spec()
	if err != nil {
		log.Fatal(err)
	}
	built, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	tl, err := churn.Generate(built.G, gen.genSpec())
	if err != nil {
		log.Fatal(err)
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := tl.WriteTrace(w); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d events over %gs on %s (%d nodes, %d arcs)\n",
		len(tl.Events), tl.Horizon, inst.topology, built.G.NumNodes(), built.G.NumEdges())
	return 0
}

// replayConfig bundles the replay-only knobs.
type replayConfig struct {
	counterfactual bool
	verify         bool
	convergence    bool
	floodHopMs     float64
	spfMs          float64
	routeWorkers   int
	out            string
	obs            obs.CLI
}

func (c *replayConfig) register(fs *flag.FlagSet) {
	fs.BoolVar(&c.counterfactual, "counterfactual", false, "score each event against the intact baseline (checkpoint/revert) instead of accumulating state")
	fs.BoolVar(&c.verify, "verify", false, "re-evaluate every event from scratch and fail on any bitwise disagreement with the delta path")
	fs.BoolVar(&c.convergence, "convergence", false, "emulate OSPF convergence: score stale-tree transients per event")
	fs.Float64Var(&c.floodHopMs, "flood-hop-ms", 0, "per-adjacency LSA propagation delay, ms (0 = default 2)")
	fs.Float64Var(&c.spfMs, "spf-ms", 0, "SPF recompute + FIB install time, ms (0 = default 50)")
	fs.IntVar(&c.routeWorkers, "route-workers", 0, "with -verify, SPF workers of the verified replay's from-scratch evaluations and full routes: 0 = auto (results are identical); ignored without -verify")
	fs.StringVar(&c.out, "o", "", "write JSON-lines records to this file instead of stdout")
	c.obs.RegisterFlags(fs)
}

func (c *replayConfig) options() churn.Options {
	return churn.Options{
		Counterfactual: c.counterfactual,
		Verify:         c.verify,
		RouteWorkers:   c.routeWorkers,
		Convergence: churn.ConvergenceOptions{
			Enabled:    c.convergence,
			FloodHopMs: c.floodHopMs,
			SpfMs:      c.spfMs,
		},
	}
}

// optimize builds the instance and runs both weight searches.
func optimize(inst instanceConfig) (*scenario.Point, error) {
	spec, err := inst.spec()
	if err != nil {
		return nil, err
	}
	b, err := search.BudgetByName(inst.budget)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "optimizing %s (budget %s)...\n", spec.Describe(), inst.budget)
	return scenario.RunPoint(spec, b)
}

func cmdReplay(args []string) int {
	var inst instanceConfig
	var gen genConfig
	var rc replayConfig
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	inst.register(fs)
	gen.register(fs, true)
	rc.register(fs)
	fs.Parse(args)

	manifest := obs.NewManifest("dtrchurn replay", args)
	manifest.SetSeed(inst.seed)
	manifest.SpecHash = obs.SpecHash(struct {
		Inst instanceConfig
		Gen  genConfig
		Opts churn.Options
	}{inst, gen, rc.options()})
	if err := rc.obs.Start(manifest); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := rc.obs.Stop(); err != nil {
			log.Fatal(err)
		}
	}()

	pt, err := optimize(inst)
	if err != nil {
		log.Fatal(err)
	}
	tl, err := gen.timeline(pt.Inst)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := churn.NewReplayer(pt.Eval, pt.DTR.WH, pt.DTR.WL, rc.options())
	if err != nil {
		log.Fatal(err)
	}

	out := os.Stdout
	if rc.out != "" {
		f, err := os.Create(rc.out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	if line, err := manifest.JSONLine(); err == nil {
		if _, err := out.Write(line); err != nil {
			log.Fatal(err)
		}
	}
	enc := json.NewEncoder(out)

	// SIGINT/SIGTERM flips the context: the step loop below flushes what
	// completed, marks the summary partial, and exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rec, err := rep.Start()
	if err != nil {
		log.Fatal(err)
	}
	if err := enc.Encode(rec); err != nil {
		log.Fatal(err)
	}
	interrupted := false
	for i := range tl.Events {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		rec, err := rep.Step(&tl.Events[i])
		if err != nil {
			log.Fatal(err)
		}
		if err := enc.Encode(rec); err != nil {
			log.Fatal(err)
		}
	}
	horizon := tl.Horizon
	if interrupted {
		horizon = 0 // integrate only through the last replayed event
	}
	sum := rep.Finish(horizon)
	sum.Partial = interrupted
	if err := enc.Encode(map[string]churn.Summary{"churn_summary": sum}); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"replayed %d/%d events: %d disconnected, %d full routes, violation %.4g Mbps·s, transient %.4g Mbps·s, peak util %.3f\n",
		sum.Events, len(tl.Events), sum.Disconnects, sum.FullRoutes,
		sum.ViolationMbpsSec, sum.TransientMbpsSec, sum.PeakUtil)
	if interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: summary is partial")
		return 1
	}
	return 0
}

func cmdCompare(args []string) int {
	var inst instanceConfig
	var gen genConfig
	var rc replayConfig
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	inst.register(fs)
	gen.register(fs, true)
	rc.register(fs)
	fs.Parse(args)
	if rc.counterfactual {
		log.Fatal("compare needs cumulative replays; drop -counterfactual")
	}

	manifest := obs.NewManifest("dtrchurn compare", args)
	manifest.SetSeed(inst.seed)
	if err := rc.obs.Start(manifest); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := rc.obs.Stop(); err != nil {
			log.Fatal(err)
		}
	}()

	pt, err := optimize(inst)
	if err != nil {
		log.Fatal(err)
	}
	tl, err := gen.timeline(pt.Inst)
	if err != nil {
		log.Fatal(err)
	}
	// Both replays drive the point's evaluator (a clone of it under
	// -verify), one after the other; each Start moves its DTR state back to
	// the intact setting.
	run := func(convergence bool) (*churn.Summary, error) {
		opts := rc.options()
		opts.Convergence.Enabled = convergence
		rep, err := churn.NewReplayer(pt.Eval, pt.DTR.WH, pt.DTR.WL, opts)
		if err != nil {
			return nil, err
		}
		return rep.Run(tl, nil)
	}
	instant, err := run(false)
	if err != nil {
		log.Fatal(err)
	}
	conv, err := run(true)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d events over %gs; %d disconnected\n", instant.Events, tl.Horizon, instant.Disconnects)
	fmt.Printf("%-16s %14s %14s\n", "", "instantaneous", "convergence")
	fmt.Printf("%-16s %14.4g %14.4g\n", "violation Mbps·s", instant.ViolationMbpsSec, conv.ViolationMbpsSec)
	fmt.Printf("%-16s %14.4g %14.4g\n", "transient Mbps·s", instant.TransientMbpsSec, conv.TransientMbpsSec)
	fmt.Printf("%-16s %14.4g %14.4g\n", "total Mbps·s", instant.TotalMbpsSec, conv.TotalMbpsSec)
	fmt.Printf("convergence adds %d micro-loops, %d blackholes; worst window %.1f ms\n",
		conv.MicroLoops, conv.Blackholes, conv.MaxWindowMs)
	if conv.ViolationMbpsSec != instant.ViolationMbpsSec {
		log.Fatalf("steady-state integrals diverged: %g vs %g (replay engine bug)",
			conv.ViolationMbpsSec, instant.ViolationMbpsSec)
	}
	if conv.TotalMbpsSec < instant.TotalMbpsSec {
		log.Fatalf("convergence total %g below instantaneous %g (replay engine bug)",
			conv.TotalMbpsSec, instant.TotalMbpsSec)
	}
	return 0
}
