package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"dualtopo/internal/churn"
	"dualtopo/internal/dtrd"
	"dualtopo/internal/eval"
	"dualtopo/internal/graph"
	"dualtopo/internal/scenario"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
)

// Every input is a pure function of the -seed argument: the instance seed is
// the seed itself and each derived stream (weight vectors, sampled states,
// synthetic moves) is a PCG keyed by the seed and a per-purpose constant, so
// adding a stream never shifts another.
const (
	streamWeights = 0x77656967 // "weig"
	streamMoves   = 0x6d6f7665 // "move"
	streamStates  = 0x73746174 // "stat"
)

func stream(seed, purpose uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, purpose)) }

// requestVectors is how many distinct weight settings a serving workload
// cycles through. Sixteen is enough that no response can be served from a
// last-request memo, and few enough that every one is verified against the
// independent evaluator during warm-up.
const requestVectors = 16

// randomWeights draws one per-arc weight vector in [1, wmax].
func randomWeights(rng *rand.Rand, arcs, wmax int) spf.Weights {
	w := make(spf.Weights, arcs)
	for i := range w {
		w[i] = 1 + rng.IntN(wmax)
	}
	return w
}

// loadRequest is the POST /v1/topologies body of a serving workload.
func loadRequest(name string, seed uint64, clients int) dtrd.LoadRequest {
	req := dtrd.LoadRequest{Name: name, Topology: "random", Seed: seed, PoolSize: clients}
	switch name {
	case "route-small":
		req.Nodes, req.Links, req.Objective = 30, 75, "load" // the paper's size
	case "route-large":
		req.Nodes, req.Links, req.Objective = 200, 600, "sla"
	case "whatif-sweep":
		req.Nodes, req.Links, req.Objective = 50, 125, "sla"
	default:
		panic("bench: no load request for workload " + name)
	}
	return req
}

// instanceSpec restates dtrd's LoadRequest → InstanceSpec mapping, so the
// answer checks score against an instance built beside the daemon, not
// through it.
func instanceSpec(req dtrd.LoadRequest) scenario.InstanceSpec {
	kind := eval.LoadBased
	if req.Objective == "sla" {
		kind = eval.SLABased
	}
	return scenario.InstanceSpec{
		Topology: req.Topology, Nodes: req.Nodes, Links: req.Links,
		Capacity: req.CapacityMbps, Kind: kind, ThetaMs: req.ThetaMs,
		F: req.F, K: req.K, HPModel: req.HPModel, Sinks: req.Sinks,
		LPSinks: req.LPSinks, TargetUtil: req.TargetUtil, Seed: req.Seed,
	}
}

// hierSpec is the 8 PoP × 25 router two-tier ISP (200 nodes, 784 arcs) the
// search and churn workloads share. Its dual-plane symmetry gives long
// equal-distance runs under the unit-weight search start: the case the SPF
// tree post-processing is slowest on.
func hierSpec(seed uint64) scenario.InstanceSpec {
	return scenario.InstanceSpec{
		Topology: "hier", Kind: eval.SLABased, TargetUtil: 0.6, Seed: seed,
		TopoParams: &topo.Params{Pops: 8, RoutersPerPop: 25},
	}
}

// routeBodies builds the route workloads' request bodies: every fourth is STR
// (one vector, both classes on one tree set), the rest DTR (two vectors, two
// tree sets, about twice the routing). An even mix would park the median
// latency on the gap between the two modes, where it jumps with the noise;
// at one in four it sits inside the DTR mode and both paths still run.
func routeBodies(seed uint64, arcs int) ([]dtrd.RouteRequest, [][]byte) {
	rng := stream(seed, streamWeights)
	reqs := make([]dtrd.RouteRequest, requestVectors)
	for i := range reqs {
		if i%4 == 0 {
			reqs[i].Weights = randomWeights(rng, arcs, 30)
		} else {
			reqs[i].WeightsHigh = randomWeights(rng, arcs, 30)
			reqs[i].WeightsLow = randomWeights(rng, arcs, 30)
		}
	}
	return reqs, marshalAll(reqs)
}

// whatIfBodies builds DTR sweeps under the default failure model: every
// single-link state.
func whatIfBodies(seed uint64, arcs int) ([]dtrd.WhatIfRequest, [][]byte) {
	rng := stream(seed, streamWeights)
	reqs := make([]dtrd.WhatIfRequest, requestVectors)
	for i := range reqs {
		reqs[i].WeightsHigh = randomWeights(rng, arcs, 30)
		reqs[i].WeightsLow = randomWeights(rng, arcs, 30)
	}
	return reqs, marshalAll(reqs)
}

func marshalAll[T any](reqs []T) [][]byte {
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := json.Marshal(reqs[i])
		if err != nil {
			panic(fmt.Sprintf("bench: marshal request %d: %v", i, err)) // plain ints cannot fail
		}
		bodies[i] = b
	}
	return bodies
}

// churnTimelineCount is how many timelines a churn-replay run cycles through.
// What a step costs depends on which links an earlier weight reset touched, so
// one timeline's mean step cost differs from another's by several percent;
// four of them in rotation halve that seed-to-seed difference.
const churnTimelineCount = 4

// churnTimelines generates the churn-replay event streams: link flaps with
// fast repair and operator weight resets, at rates that give
// the 392-link hier instance about 490 events per 130 s pass, and about two brief
// node outages. Anything that leaves demand disconnected for long is kept
// rare on purpose (short repair times): every event that falls inside such a
// window finds a router already invalid and costs one failed full route, so
// the windows' share of the timeline would otherwise decide the median.
// Weight resets cost about what a link-down does; at one every two seconds
// they keep the median step well inside that mode rather than on its upper
// edge, next to the gap before the (twice as costly) link-up mode.
func churnTimelines(g *graph.Graph, seed uint64, horizon float64) ([]*churn.Timeline, error) {
	tls := make([]*churn.Timeline, churnTimelineCount)
	for i := range tls {
		tl, err := churn.Generate(g, churn.GenSpec{
			Seed: seed + uint64(i), Horizon: horizon,
			LinkMTBF: 240, LinkMTTR: 1,
			NodeMTBF: 13000, NodeMTTR: 0.3,
			WeightRate: 0.5,
		})
		if err != nil {
			return nil, err
		}
		tls[i] = tl
	}
	return tls, nil
}

// churnWeights is the DTR setting the replay is pinned to: unit weights in
// both topologies, the symmetric start under which both uplinks of every
// access router carry traffic. Every link event then re-routes nearly every
// tree — a disable through the partial increase path, a repair through whole
// recomputes — so step cost has two tight modes (down, up) instead of a
// seed-dependent split between used and unused uplinks.
func churnWeights(arcs int) (wH, wL spf.Weights) {
	return spf.Uniform(arcs), spf.Uniform(arcs)
}
