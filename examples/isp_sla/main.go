// isp_sla optimizes an ISP backbone for SLA compliance — the scenario that
// motivates the paper's second cost function (§3.2): premium customers pay
// for end-to-end delay bounds, and the provider pays penalties for
// violations. The example optimizes STR and DTR weights for the 16-node
// North-American backbone, then deploys the DTR weights on the simulated
// MT-OSPF control plane and traces per-class forwarding paths.
package main

import (
	"context"
	"fmt"
	"log"

	"dualtopo"
)

func main() {
	log.SetFlags(0)
	// The 16-node North-American backbone under gravity traffic, 30% of it
	// high-priority over 10% of the SD pairs, loaded to ~95% average
	// utilization and scored against the SLA objective (θ = 25 ms). At
	// ~60% no premium pair misses the bound under either scheme; at this
	// load some do, and the two schemes' penalties differ.
	inst, err := dualtopo.InstanceSpec{
		Topology: "isp", Kind: dualtopo.SLABased,
		F: 0.30, K: 0.10, TargetUtil: 0.95, Seed: 2007,
	}.Build()
	if err != nil {
		log.Fatal(err)
	}
	g, opts := inst.G, inst.Opts
	h, err := dualtopo.NewTopologyHandle("isp-sla", g, inst.TH, inst.TL, opts, dualtopo.SessionPool{Size: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	sess, err := h.Session(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer h.Release(sess)   //nolint:errcheck // process exits right after
	sess.SetRouteWorkers(0) // sole lease: use all cores
	ev := sess.Evaluator()

	strParams := dualtopo.STRDefaults()
	strParams.Iterations, strParams.Candidates = 1500, 5
	str, err := dualtopo.OptimizeSTR(ev, strParams)
	if err != nil {
		log.Fatal(err)
	}
	dtrParams := dualtopo.DTRDefaults()
	dtrParams.N, dtrParams.K = 800, 500
	dtr, err := dualtopo.OptimizeDTRFrom(ev, str.W, str.W, dtrParams)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("SLA bound θ = %.0f ms, penalty = %g + %g per excess ms\n\n",
		opts.SLA.ThetaMs, opts.SLA.PenaltyA, opts.SLA.PenaltyB)
	fmt.Printf("%-22s %12s %10s %14s\n", "scheme", "SLA penalty", "violations", "low-pri cost")
	fmt.Printf("%-22s %12.1f %10d %14.1f\n", "STR (single topology)",
		str.Result.Lambda, str.Result.Violations, str.Result.PhiL)
	fmt.Printf("%-22s %12.1f %10d %14.1f\n\n", "DTR (dual topology)",
		dtr.Result.Lambda, dtr.Result.Violations, dtr.Result.PhiL)

	// Deploy the DTR weights on the MT-OSPF control plane and trace one
	// coast-to-coast flow per class.
	net, err := dualtopo.BuildOSPFNetwork(g, dtr.WH, dtr.WL)
	if err != nil {
		log.Fatal(err)
	}
	src, _ := g.NodeByName("Seattle")
	dst, _ := g.NodeByName("Miami")
	for _, class := range []dualtopo.TopologyID{dualtopo.TopoHigh, dualtopo.TopoLow} {
		path, err := net.Forward(dualtopo.Packet{Src: src, Dst: dst, Class: class, FlowHash: 99})
		if err != nil {
			log.Fatal(err)
		}
		delay, err := net.PathDelay(path)
		if err != nil {
			log.Fatal(err)
		}
		name := "high-priority"
		if class == dualtopo.TopoLow {
			name = "low-priority "
		}
		fmt.Printf("%s Seattle->Miami: %s (%.1f ms propagation)\n", name, pathNames(g, path), delay)
	}
	fmt.Println("\nWith MT-OSPF the two classes follow their own topologies;")
	fmt.Println("the low-priority path avoids the links premium traffic loads.")
}

func pathNames(g *dualtopo.Graph, path []dualtopo.NodeID) string {
	out := ""
	for i, u := range path {
		if i > 0 {
			out += " > "
		}
		out += g.Name(u)
	}
	return out
}
