package traffic

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"dualtopo/internal/graph"
)

// RandomHighPriority generates TH with the paper's random model: a fraction
// k of the n(n−1) ordered SD pairs carry high-priority traffic, each pair
// weighted by m(s,t) ~ U[1,4], and the total volume is set so high-priority
// traffic is a fraction f of all traffic:
//
//	r_H(s,t) = η_L · f/(1−f) · m(s,t) / Σ m(i,j)
//
// where etaL is the total low-priority volume (TL.Total()).
func RandomHighPriority(n int, k, f, etaL float64, rng *rand.Rand) (*Matrix, error) {
	if !(k > 0 && k <= 1) {
		return nil, fmt.Errorf("traffic: SD-pair density k=%g outside (0,1]", k)
	}
	if !(f > 0 && f < 1) {
		return nil, fmt.Errorf("traffic: high-priority fraction f=%g outside (0,1)", f)
	}
	numPairs := int(float64(n*(n-1))*k + 0.5)
	if numPairs < 1 {
		numPairs = 1
	}
	pairs := samplePairs(n, numPairs, rng)
	return weightedMatrix(n, pairs, f, etaL, rng), nil
}

// SinkPlacement selects where the sink model's client nodes live.
type SinkPlacement int

const (
	// UniformClients scatters clients uniformly over non-sink nodes.
	UniformClients SinkPlacement = iota
	// LocalClients picks the non-sink nodes closest (in hops) to a sink.
	LocalClients
)

// SinkHighPriority generates TH with the paper's sink model (§5.1.2,
// §5.2.3): numSinks highest-degree nodes act as "popular servers" (e.g.
// data centers); clients are chosen per placement; bidirectional demand is
// generated between every client and every sink. The client count is sized
// so the pair density matches k. Volumes use the same m(s,t) ∈ [1,4]
// weighting and f-fraction scaling as the random model.
func SinkHighPriority(g *graph.Graph, numSinks int, k, f, etaL float64, placement SinkPlacement, rng *rand.Rand) (*Matrix, error) {
	n := g.NumNodes()
	if numSinks < 1 || numSinks >= n {
		return nil, fmt.Errorf("traffic: numSinks=%d outside [1,%d)", numSinks, n)
	}
	if !(k > 0 && k <= 1) {
		return nil, fmt.Errorf("traffic: SD-pair density k=%g outside (0,1]", k)
	}
	if !(f > 0 && f < 1) {
		return nil, fmt.Errorf("traffic: high-priority fraction f=%g outside (0,1)", f)
	}
	sinks := topDegreeNodes(g, numSinks)
	isSink := make(map[graph.NodeID]bool, numSinks)
	for _, s := range sinks {
		isSink[s] = true
	}

	// 2 · numSinks · numClients pairs ≈ k · n(n−1).
	numClients := int(k*float64(n*(n-1))/float64(2*numSinks) + 0.5)
	if numClients < 1 {
		numClients = 1
	}
	if max := n - numSinks; numClients > max {
		numClients = max
	}

	var clients []graph.NodeID
	switch placement {
	case UniformClients:
		perm := rng.Perm(n)
		for _, u := range perm {
			if !isSink[graph.NodeID(u)] {
				clients = append(clients, graph.NodeID(u))
			}
			if len(clients) == numClients {
				break
			}
		}
	case LocalClients:
		clients = closestToSinks(g, sinks, isSink, numClients, rng)
	default:
		return nil, fmt.Errorf("traffic: unknown sink placement %d", placement)
	}

	var pairs [][2]graph.NodeID
	for _, c := range clients {
		for _, s := range sinks {
			pairs = append(pairs, [2]graph.NodeID{c, s}, [2]graph.NodeID{s, c})
		}
	}
	return weightedMatrix(n, pairs, f, etaL, rng), nil
}

// weightedMatrix distributes the f-fraction volume over the given pairs with
// m(s,t) ~ U[1,4] heterogeneity.
func weightedMatrix(n int, pairs [][2]graph.NodeID, f, etaL float64, rng *rand.Rand) *Matrix {
	m := NewMatrix(n)
	weights := make([]float64, len(pairs))
	totalW := 0.0
	for i := range pairs {
		weights[i] = 1 + 3*rng.Float64()
		totalW += weights[i]
	}
	volume := etaL * f / (1 - f)
	for i, p := range pairs {
		m.Add(p[0], p[1], volume*weights[i]/totalW)
	}
	return m
}

// samplePairs picks count distinct ordered pairs uniformly at random.
func samplePairs(n, count int, rng *rand.Rand) [][2]graph.NodeID {
	total := n * (n - 1)
	if count > total {
		count = total
	}
	// Sample pair indexes without replacement via partial Fisher-Yates over
	// the implicit [0, total) index space.
	idx := rng.Perm(total)[:count]
	pairs := make([][2]graph.NodeID, 0, count)
	for _, x := range idx {
		s := x / (n - 1)
		t := x % (n - 1)
		if t >= s {
			t++ // skip the diagonal
		}
		pairs = append(pairs, [2]graph.NodeID{graph.NodeID(s), graph.NodeID(t)})
	}
	return pairs
}

// topDegreeNodes returns the count nodes with the highest undirected degree,
// ties broken by node ID for determinism.
func topDegreeNodes(g *graph.Graph, count int) []graph.NodeID {
	type nd struct {
		id  graph.NodeID
		deg int
	}
	all := make([]nd, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		all[u] = nd{graph.NodeID(u), g.UndirectedDegree(graph.NodeID(u))}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].deg != all[j].deg {
			return all[i].deg > all[j].deg
		}
		return all[i].id < all[j].id
	})
	out := make([]graph.NodeID, count)
	for i := range out {
		out[i] = all[i].id
	}
	return out
}

// closestToSinks returns the numClients non-sink nodes with the smallest
// hop distance to any sink (BFS), random tie-breaking within a distance.
func closestToSinks(g *graph.Graph, sinks []graph.NodeID, isSink map[graph.NodeID]bool, numClients int, rng *rand.Rand) []graph.NodeID {
	const inf = int(^uint(0) >> 1)
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = inf
	}
	queue := make([]graph.NodeID, 0, g.NumNodes())
	for _, s := range sinks {
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.Out(u) {
			v := g.Edge(id).To
			if dist[v] == inf {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	candidates := make([]graph.NodeID, 0, g.NumNodes())
	for _, u := range rng.Perm(g.NumNodes()) {
		if !isSink[graph.NodeID(u)] && dist[u] < inf {
			candidates = append(candidates, graph.NodeID(u))
		}
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		return dist[candidates[i]] < dist[candidates[j]]
	})
	if numClients > len(candidates) {
		numClients = len(candidates)
	}
	return candidates[:numClients]
}
