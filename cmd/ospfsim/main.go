// Command ospfsim demonstrates the multi-topology OSPF control plane: it
// optimizes DTR weights for a topology, floods them as per-topology metrics,
// verifies convergence, and traces per-class forwarding paths for sample
// flows.
//
// Usage:
//
//	ospfsim                      # ISP backbone demo
//	ospfsim -topo random -nodes 20 -links 50 -flows 5
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"

	"dualtopo"
	"dualtopo/internal/instance"
	"dualtopo/internal/search"
	"dualtopo/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ospfsim: ")
	var (
		topoName = flag.String("topo", "isp", "topology: "+topo.FamilyList())
		nodes    = flag.Int("nodes", 0, "node count (0 = family default; structurally sized families derive it)")
		links    = flag.Int("links", 0, "bidirectional links (0 = paper default)")
		flows    = flag.Int("flows", 3, "sample flows to trace")
		seed     = flag.Uint64("seed", 7, "random seed")
	)
	flag.Parse()

	spec := instance.Spec{
		Topology: *topoName, Nodes: *nodes, Links: *links,
		TargetUtil: 0.6, Seed: *seed,
	}
	inst, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	ev, err := inst.Evaluator()
	if err != nil {
		log.Fatal(err)
	}
	params := search.Defaults()
	params.N, params.K, params.M = 800, 500, 150
	params.Seed = *seed
	dtr, err := search.DTR(ev, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized DTR weights: PhiH=%.4g PhiL=%.4g (%d evaluations)\n",
		dtr.Result.PhiH, dtr.Result.PhiL, dtr.Evaluations)

	net, err := dualtopo.BuildOSPFNetwork(inst.G, dtr.WH, dtr.WL)
	if err != nil {
		log.Fatal(err)
	}
	if !net.Converged() {
		log.Fatal("network failed to converge")
	}
	fmt.Printf("control plane converged: %d routers, full LSDBs, 2 topologies\n\n", inst.G.NumNodes())

	rng := rand.New(rand.NewPCG(*seed, 2))
	for i := 0; i < *flows; i++ {
		src := dualtopo.NodeID(rng.IntN(inst.G.NumNodes()))
		dst := dualtopo.NodeID(rng.IntN(inst.G.NumNodes()))
		if src == dst {
			continue
		}
		fmt.Printf("flow %s -> %s:\n", inst.G.Name(src), inst.G.Name(dst))
		for _, class := range []dualtopo.TopologyID{dualtopo.TopoHigh, dualtopo.TopoLow} {
			path, err := net.Forward(dualtopo.Packet{Src: src, Dst: dst, Class: class, FlowHash: uint32(i)})
			if err != nil {
				log.Fatal(err)
			}
			delay, err := net.PathDelay(path)
			if err != nil {
				log.Fatal(err)
			}
			label := "high"
			if class == dualtopo.TopoLow {
				label = "low "
			}
			fmt.Printf("  %s: %v (%.1f ms)\n", label, names(inst.G, path), delay)
		}
	}
}

func names(g *dualtopo.Graph, path []dualtopo.NodeID) []string {
	out := make([]string, len(path))
	for i, u := range path {
		out[i] = g.Name(u)
	}
	return out
}
