// sink_datacenter models the enterprise scenario from the paper's
// introduction: critical data-center traffic (e.g. backups) shares an IP
// network with ordinary best-effort load. Data centers are "sinks" — a few
// high-degree nodes exchanging premium traffic with many clients (§5.1.2's
// sink model). The example compares DTR's benefit when clients are scattered
// across the network vs clustered next to the data centers (Fig. 8), and
// validates the priority-queueing abstraction with the discrete-event queue
// simulator on the busiest link that carries premium traffic.
package main

import (
	"context"
	"fmt"
	"log"

	"dualtopo"
)

func main() {
	log.SetFlags(0)

	for _, hp := range []string{"sink-uniform", "sink-local"} {
		name := "uniform clients (scattered offices)"
		if hp == "sink-local" {
			name = "local clients (offices next to the data centers)"
		}
		fmt.Printf("== %s ==\n", name)
		runScenario(hp)
		fmt.Println()
	}
}

func runScenario(hp string) {
	// A 30-node power-law network with 3 data centers; 20% of the traffic is
	// premium, over 10% of the SD pairs, and the network is moderately
	// loaded.
	inst, err := dualtopo.InstanceSpec{
		Topology: "powerlaw", Nodes: 30, Links: 81,
		HPModel: hp, Sinks: 3, F: 0.20, K: 0.10, TargetUtil: 0.55, Seed: 88,
	}.Build()
	if err != nil {
		log.Fatal(err)
	}
	g := inst.G

	h, err := dualtopo.NewTopologyHandle("sink-datacenter", g, inst.TH, inst.TL, inst.Opts, dualtopo.SessionPool{Size: 1})
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
	fmt.Printf("  STR low-priority cost: %12.1f\n", str.Result.PhiL)
	fmt.Printf("  DTR low-priority cost: %12.1f   (RL = %.2f)\n",
		dtr.Result.PhiL, str.Result.PhiL/dtr.Result.PhiL)

	// Validate the priority-queueing model on the busiest DTR link that
	// carries premium traffic: simulate the two classes' packets through a
	// strict-priority queue and compare the high-priority sojourn with the
	// M/M/1 prediction.
	busiest, hUtil, lUtil, ok := busiestLink(g, dtr.Result)
	if !ok {
		fmt.Println("  queue validation skipped: no link below 95% utilization carries premium traffic")
		return
	}
	mu := 1.0 // normalize service rate; arrival rates are utilizations
	res, err := dualtopo.SimulateQueue(dualtopo.QueueConfig{
		ArrivalH: hUtil, ArrivalL: lUtil, ServiceRate: mu,
		Discipline: dualtopo.PreemptiveResume, Packets: 200000, Warmup: 2000, Seed: 9,
	})
	if err != nil {
		fmt.Printf("  queue validation skipped: %v\n", err)
		return
	}
	predicted := 1 / (mu - hUtil) // M/M/1 for the high class alone
	fmt.Printf("  busiest link %d: H-util %.2f, L-util %.2f\n", busiest, hUtil, lUtil)
	fmt.Printf("  premium sojourn on it: simulated %.2f vs M/M/1 prediction %.2f (normalized)\n",
		res.H.MeanSojourn, predicted)
}

// busiestLink picks the most utilized link that carries premium traffic,
// below 95% total utilization so the simulated queue stays stable; ok is
// false if there is none.
func busiestLink(g *dualtopo.Graph, r *dualtopo.EvalResult) (best dualtopo.EdgeID, hUtil, lUtil float64, ok bool) {
	for i := range r.HLoads {
		cap := g.Edge(dualtopo.EdgeID(i)).Capacity
		h, l := r.HLoads[i]/cap, r.LLoads[i]/cap
		if r.HLoads[i] > 0 && h+l < 0.95 && (!ok || h+l > hUtil+lUtil) {
			best, hUtil, lUtil, ok = dualtopo.EdgeID(i), h, l, true
		}
	}
	return best, hUtil, lUtil, ok
}
