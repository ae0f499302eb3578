// Quickstart: generate a random 30-node network with two traffic classes,
// optimize routing with single-topology (STR) and dual-topology (DTR)
// weights, and compare the per-class costs — the paper's headline
// experiment in miniature.
package main

import (
	"context"
	"fmt"
	"log"

	"dualtopo"
)

func main() {
	log.SetFlags(0)

	// The paper's standard instance (§5.1): 30 nodes, 150 arcs, 500 Mbps
	// links, 30% high-priority volume spread over 10% of the SD pairs, both
	// matrices scaled to a moderately loaded network (where DTR helps most).
	inst, err := dualtopo.InstanceSpec{
		Topology: "random", Nodes: 30, Links: 75,
		F: 0.30, K: 0.10, TargetUtil: 0.55, Seed: 1,
	}.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Wrap the instance in a handle and lease a session: the handle holds the
	// immutable problem, the session the mutable routing state. A batch
	// program like this one needs a single session for its whole run.
	h, err := dualtopo.NewTopologyHandle("quickstart", inst.G, inst.TH, inst.TL, inst.Opts, dualtopo.SessionPool{Size: 1})
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
	strParams.Iterations, strParams.Candidates = 2000, 5
	str, err := dualtopo.OptimizeSTR(ev, strParams)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("STR (one topology):   PhiH = %10.1f   PhiL = %10.1f\n",
		str.Result.PhiH, str.Result.PhiL)

	dtrParams := dualtopo.DTRDefaults()
	dtrParams.N, dtrParams.K = 1000, 600
	dtr, err := dualtopo.OptimizeDTRFrom(ev, str.W, str.W, dtrParams)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DTR (two topologies): PhiH = %10.1f   PhiL = %10.1f\n",
		dtr.Result.PhiH, dtr.Result.PhiL)

	fmt.Printf("\ncost ratios (STR/DTR):  RH = %.2f   RL = %.2f\n",
		str.Result.PhiH/dtr.Result.PhiH, str.Result.PhiL/dtr.Result.PhiL)
	fmt.Println("\nThe high-priority class performs the same under both schemes;")
	fmt.Println("the low-priority class improves because its own topology routes")
	fmt.Println("it away from links the high-priority traffic has loaded.")
}
