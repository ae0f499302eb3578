// Command dtropt computes optimized link weights for a topology and traffic
// demand: the STR baseline (one weight set) and the paper's DTR heuristic
// (two weight sets), printing per-class costs and the resulting weights.
//
// Usage:
//
//	dtropt -topo random -nodes 30 -links 75 -util 0.6 -kind load
//	dtropt -topo isp -kind sla -theta 25 -json weights.json
//
// With -graph FILE, a JSON topology (see cmd/topogen) replaces the generated
// one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"dualtopo/internal/engine"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/instance"
	"dualtopo/internal/obs"
	"dualtopo/internal/search"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
	"dualtopo/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtropt: ")
	var (
		topoName  = flag.String("topo", "random", "topology: "+topo.FamilyList())
		graphFile = flag.String("graph", "", "JSON topology file (overrides -topo)")
		nodes     = flag.Int("nodes", 0, "node count (0 = family default; structurally sized families derive it)")
		links     = flag.Int("links", 0, "bidirectional link count (0 = paper default)")
		kind      = flag.String("kind", "load", "objective: load|sla")
		theta     = flag.Float64("theta", 25, "SLA delay bound in ms")
		f         = flag.Float64("f", 0.30, "high-priority volume fraction")
		k         = flag.Float64("k", 0.10, "high-priority SD-pair density")
		hpModel   = flag.String("hp", "random", "high-priority traffic model: "+traffic.ModelList())
		sinks     = flag.Int("sinks", 0, "sink-model server count (0 = model default)")
		lpSinks   = flag.Int("lp-sinks", 0, "low-priority gravity sink count: 0 = dense n x n gravity; s > 0 = sink-limited gravity with s destinations (O(s*n) memory, required past a few thousand nodes)")
		util      = flag.Float64("util", 0.6, "target average link utilization")
		seed      = flag.Uint64("seed", 1, "random seed")
		budget    = flag.String("budget", "small", "search budget preset: smoke|tiny|small|paper")
		jsonOut   = flag.String("json", "", "write weights and costs as JSON to this file")
		traceOut  = flag.String("trace", "", "write the DTR search trajectory as JSONL to this file")
		multi     = flag.Int("multistart", 1, "portfolio size: run this many diverse seeded DTR trajectories and keep the best (1 = plain search)")
		guide     = flag.Float64("guide", 0, "guided-step probability in [0,1]: bias moves toward cost-attributed arcs (0 = paper's blind rank sampling)")
		prune     = flag.Bool("prune", false, "skip provably routing-invariant candidates before evaluation")
	)
	var obsCLI obs.CLI
	obsCLI.RegisterFlags(flag.CommandLine)
	flag.Parse()

	manifest := obs.NewManifest("dtropt", os.Args[1:])
	manifest.SetSeed(*seed)
	if err := obsCLI.Start(manifest); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := obsCLI.Stop(); err != nil {
			log.Fatal(err)
		}
	}()

	tier, err := search.BudgetByName(*budget)
	if err != nil {
		log.Fatal(err)
	}
	objective, err := eval.ParseKind(*kind)
	if err != nil {
		log.Fatal(err)
	}

	spec := instance.Spec{
		Topology: *topoName, Nodes: *nodes, Links: *links,
		Kind: objective, ThetaMs: *theta,
		F: *f, K: *k, HPModel: *hpModel, Sinks: *sinks,
		LPSinks: *lpSinks, TargetUtil: *util, Seed: *seed,
	}
	var inst *instance.Instance
	if *graphFile != "" {
		inst, err = graphInstance(*graphFile, spec)
	} else {
		inst, err = spec.Build()
	}
	if err != nil {
		log.Fatal(err)
	}
	// Construct the evaluator through the engine: same entry point the dtrd
	// daemon serves from, so batch and served results stay bitwise-identical.
	h, err := engine.New("dtropt", inst, engine.PoolConfig{Size: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	sess, err := h.Session(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer h.Release(sess)   //nolint:errcheck // process exits right after
	sess.SetRouteWorkers(0) // sole lease: restore the parallel batch default
	ev := sess.Evaluator()
	manifest.SpecHash = obs.SpecHash(struct {
		Topo, Graph, Kind, Budget string
		Nodes, Links              int
		Theta, F, K, Util         float64
		Seed                      uint64
	}{*topoName, *graphFile, *kind, *budget, *nodes, *links, *theta, *f, *k, *util, *seed})

	strParams := tier.STR
	strParams.Seed = *seed
	str, err := search.STR(ev, strParams)
	if err != nil {
		log.Fatal(err)
	}
	dtrParams := tier.DTR
	dtrParams.Seed = *seed + 1
	dtrParams.Guide = *guide
	dtrParams.Prune = *prune
	var tw *search.TraceWriter
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		tw = search.NewTraceWriter(tf)
		defer func() {
			if err := tw.Err(); err != nil {
				log.Fatal(err)
			}
			if err := tf.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	var dtr *search.DTRResult
	var pf *search.PortfolioResult
	if *multi > 1 {
		strategies := search.DefaultPortfolio(*multi)
		// Explicit -guide/-prune override every trajectory; otherwise each
		// strategy keeps its own guidance mix (strategy 0 stays faithful).
		for i := range strategies {
			if *guide > 0 {
				strategies[i].Guide = *guide
			}
			if *prune {
				strategies[i].Prune = true
			}
		}
		pp := search.PortfolioParams{Base: dtrParams, Strategies: strategies}
		if tw != nil {
			pp.OnEvent = tw.OnEvent // TraceWriter serializes internally
		}
		pf, err = search.Portfolio(ev, str.W, str.W, pp)
		if err != nil {
			log.Fatal(err)
		}
		dtr = pf.Best
	} else {
		if tw != nil {
			dtrParams.OnEvent = tw.OnEvent
		}
		dtr, err = search.DTRFrom(ev, str.W, str.W, dtrParams)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("instance: %d nodes, %d arcs, objective=%s, target util=%.2f\n",
		inst.G.NumNodes(), inst.G.NumEdges(), *kind, *util)
	fmt.Printf("%-6s  PhiH=%-12.4g PhiL=%-12.4g Lambda=%-10.4g violations=%d\n",
		"STR", str.Result.PhiH, str.Result.PhiL, str.Result.Lambda, str.Result.Violations)
	fmt.Printf("%-6s  PhiH=%-12.4g PhiL=%-12.4g Lambda=%-10.4g violations=%d\n",
		"DTR", dtr.Result.PhiH, dtr.Result.PhiL, dtr.Result.Lambda, dtr.Result.Violations)
	rl := str.Result.PhiL / dtr.Result.PhiL
	fmt.Printf("L-cost ratio RL = %.2f (DTR evaluations: %d, STR evaluations: %d)\n",
		rl, dtr.Evaluations, str.Evaluations)
	if dtr.Pruned > 0 {
		fmt.Printf("bound-pruned candidates: %d (%.0f%% of generated)\n",
			dtr.Pruned, 100*float64(dtr.Pruned)/float64(dtr.Pruned+dtr.Evaluations))
	}
	var trajectories []trajectorySummary
	if pf != nil {
		fmt.Printf("portfolio: %d trajectories, best is %d (%s)\n",
			len(pf.Trajectories), pf.BestIndex, pf.Trajectories[pf.BestIndex].Strategy.Name)
		for i, tr := range pf.Trajectories {
			marker := " "
			if i == pf.BestIndex {
				marker = "*"
			}
			fmt.Printf(" %s traj %d %-16s start=%-7s guide=%.2f PhiH=%-12.4g PhiL=%-12.4g evals=%d pruned=%d\n",
				marker, i, tr.Strategy.Name, tr.Strategy.Start, tr.Strategy.Guide,
				tr.Result.Result.PhiH, tr.Result.Result.PhiL, tr.Result.Evaluations, tr.Result.Pruned)
			trajectories = append(trajectories, trajectorySummary{
				Name: tr.Strategy.Name, Start: tr.Strategy.Start.String(),
				Guide: tr.Strategy.Guide, Prune: tr.Strategy.Prune,
				PhiH: tr.Result.Result.PhiH, PhiL: tr.Result.Result.PhiL,
				Evaluations: tr.Result.Evaluations, Pruned: tr.Result.Pruned,
				Best: i == pf.BestIndex,
			})
		}
	}

	if *jsonOut != "" {
		out := struct {
			Manifest   *obs.Manifest       `json:"manifest"`
			STRWeights spf.Weights         `json:"str_weights"`
			WH         spf.Weights         `json:"dtr_high_weights"`
			WL         spf.Weights         `json:"dtr_low_weights"`
			STRPhiH    float64             `json:"str_phi_h"`
			STRPhiL    float64             `json:"str_phi_l"`
			DTRPhiH    float64             `json:"dtr_phi_h"`
			DTRPhiL    float64             `json:"dtr_phi_l"`
			Portfolio  []trajectorySummary `json:"portfolio,omitempty"`
		}{manifest.Finish(), str.W, dtr.WH, dtr.WL, str.Result.PhiH, str.Result.PhiL, dtr.Result.PhiH, dtr.Result.PhiL, trajectories}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("weights written to %s\n", *jsonOut)
	}
}

// trajectorySummary is the per-trajectory portfolio record in -json output.
type trajectorySummary struct {
	Name        string  `json:"name"`
	Start       string  `json:"start"`
	Guide       float64 `json:"guide"`
	Prune       bool    `json:"prune"`
	PhiH        float64 `json:"phi_h"`
	PhiL        float64 `json:"phi_l"`
	Evaluations int64   `json:"evaluations"`
	Pruned      int64   `json:"pruned"`
	Best        bool    `json:"best"`
}

// graphInstance reads a JSON topology and builds spec's traffic on it with
// the same recipe the generated instances use.
func graphInstance(path string, spec instance.Spec) (*instance.Instance, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	g, err := graph.Read(file)
	if err != nil {
		return nil, err
	}
	if err := g.RequireStronglyConnected(); err != nil {
		return nil, err
	}
	return spec.FromGraph(g)
}
