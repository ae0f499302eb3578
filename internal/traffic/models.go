package traffic

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"dualtopo/internal/graph"
)

// GravityHighPriority generates TH with a capacity-weighted gravity model:
// each node's mass is its attached capacity (sum of outgoing arc
// capacities), pair (s,t) gets weight mass_s * mass_t, and the k-density
// highest-weight pairs carry the f-fraction volume in proportion to their
// weights. On homogeneous-capacity topologies every node has mass
// proportional to its degree, so the model concentrates demand between
// well-connected nodes; on heterogeneous ones (e.g. the hier family's fat
// core) it concentrates demand on the high-capacity tier. No rng draw is
// consumed: the matrix is a deterministic function of the topology.
func GravityHighPriority(g *graph.Graph, k, f, etaL float64) (*Matrix, error) {
	if !(k > 0 && k <= 1) {
		return nil, fmt.Errorf("traffic: SD-pair density k=%g outside (0,1]", k)
	}
	if !(f > 0 && f < 1) {
		return nil, fmt.Errorf("traffic: high-priority fraction f=%g outside (0,1)", f)
	}
	n := g.NumNodes()
	mass := make([]float64, n)
	for u := 0; u < n; u++ {
		for _, id := range g.Out(graph.NodeID(u)) {
			mass[u] += g.Edge(id).Capacity
		}
	}
	type pair struct {
		s, t   graph.NodeID
		weight float64
	}
	pairs := make([]pair, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			pairs = append(pairs, pair{graph.NodeID(s), graph.NodeID(t), mass[s] * mass[t]})
		}
	}
	// Keep the k-density heaviest pairs; ties break by row-major order so
	// the selection is deterministic on homogeneous topologies too.
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].weight > pairs[j].weight })
	keep := int(float64(n*(n-1))*k + 0.5)
	if keep < 1 {
		keep = 1
	}
	if keep > len(pairs) {
		keep = len(pairs)
	}
	pairs = pairs[:keep]

	totalW := 0.0
	for _, p := range pairs {
		totalW += p.weight
	}
	if !(totalW > 0) {
		return nil, fmt.Errorf("traffic: gravity masses are all zero")
	}
	m := NewMatrix(n)
	volume := etaL * f / (1 - f)
	for _, p := range pairs {
		m.Set(p.s, p.t, volume*p.weight/totalW)
	}
	return m, nil
}

// HotspotHighPriority generates TH with a bimodal hotspot placement: a
// fraction h of nodes (at least one) is drawn as hotspots, the k-density
// pair budget is filled with hotspot-touching pairs first (random order)
// and backfilled with background pairs, and hotspot pairs weigh boost times
// a background pair. The result is the bimodal demand distribution of
// flash-crowd and CDN-edge scenarios: a few nodes terminate most of the
// high-priority volume.
func HotspotHighPriority(g *graph.Graph, k, f, etaL, h, boost float64, rng *rand.Rand) (*Matrix, error) {
	if !(k > 0 && k <= 1) {
		return nil, fmt.Errorf("traffic: SD-pair density k=%g outside (0,1]", k)
	}
	if !(f > 0 && f < 1) {
		return nil, fmt.Errorf("traffic: high-priority fraction f=%g outside (0,1)", f)
	}
	if !(h > 0 && h < 1) {
		return nil, fmt.Errorf("traffic: hotspot fraction %g outside (0,1)", h)
	}
	if boost <= 1 {
		return nil, fmt.Errorf("traffic: hotspot boost %g must exceed 1", boost)
	}
	n := g.NumNodes()
	numHot := int(h*float64(n) + 0.5)
	if numHot < 1 {
		numHot = 1
	}
	if numHot >= n {
		numHot = n - 1
	}
	isHot := make([]bool, n)
	for _, u := range rng.Perm(n)[:numHot] {
		isHot[u] = true
	}

	var hotPairs, coldPairs [][2]graph.NodeID
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			p := [2]graph.NodeID{graph.NodeID(s), graph.NodeID(t)}
			if isHot[s] || isHot[t] {
				hotPairs = append(hotPairs, p)
			} else {
				coldPairs = append(coldPairs, p)
			}
		}
	}
	shufflePairs(hotPairs, rng)
	shufflePairs(coldPairs, rng)

	budget := int(float64(n*(n-1))*k + 0.5)
	if budget < 1 {
		budget = 1
	}
	hot := hotPairs
	if len(hot) > budget {
		hot = hot[:budget]
	}
	cold := coldPairs
	if rest := budget - len(hot); rest < len(cold) {
		cold = cold[:rest]
	}

	m := NewMatrix(n)
	totalW := boost*float64(len(hot)) + float64(len(cold))
	volume := etaL * f / (1 - f)
	for _, p := range hot {
		m.Set(p[0], p[1], volume*boost/totalW)
	}
	for _, p := range cold {
		m.Set(p[0], p[1], volume/totalW)
	}
	return m, nil
}

// UniformHighPriority generates the uniform baseline: the k-density pair
// budget drawn uniformly at random, every pair carrying the same volume.
// It isolates the effect of pair placement from per-pair heterogeneity —
// the control arm against the paper's U[1,4]-weighted random model.
func UniformHighPriority(n int, k, f, etaL float64, rng *rand.Rand) (*Matrix, error) {
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
	m := NewMatrix(n)
	volume := etaL * f / (1 - f)
	for _, p := range pairs {
		m.Set(p[0], p[1], volume/float64(len(pairs)))
	}
	return m, nil
}

// shufflePairs permutes pairs in place using rng (Fisher-Yates).
func shufflePairs(pairs [][2]graph.NodeID, rng *rand.Rand) {
	for i := len(pairs) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
}

func init() {
	RegisterModel(Model{
		Name:        "gravity",
		Description: "capacity-weighted gravity: demand between the best-connected (or fattest) nodes",
		Defaults:    paperHPDefaults,
		Validate:    validateFK,
		Generate: func(g *graph.Graph, etaL float64, p Params, rng *rand.Rand) (*Matrix, error) {
			return GravityHighPriority(g, p.K, p.F, etaL)
		},
	})
	RegisterModel(Model{
		Name:        "hotspot",
		Description: "bimodal placement: a few hotspot nodes terminate most high-priority volume",
		Defaults:    paperHPDefaults.overlay(Params{HotspotFraction: 0.1, HotspotBoost: 8}),
		Validate: func(p Params) error {
			if err := validateFK(p); err != nil {
				return err
			}
			if !(p.HotspotFraction > 0 && p.HotspotFraction < 1) {
				return fmt.Errorf("traffic: hotspot_fraction=%g outside (0,1)", p.HotspotFraction)
			}
			if !(p.HotspotBoost > 1) {
				return fmt.Errorf("traffic: hotspot_boost=%g must exceed 1", p.HotspotBoost)
			}
			return nil
		},
		Generate: func(g *graph.Graph, etaL float64, p Params, rng *rand.Rand) (*Matrix, error) {
			return HotspotHighPriority(g, p.K, p.F, etaL, p.HotspotFraction, p.HotspotBoost, rng)
		},
	})
	RegisterModel(Model{
		Name:        "uniform",
		Description: "uniform baseline: k-density pairs, equal volume per pair",
		Defaults:    paperHPDefaults,
		Validate:    validateFK,
		Generate: func(g *graph.Graph, etaL float64, p Params, rng *rand.Rand) (*Matrix, error) {
			return UniformHighPriority(g.NumNodes(), p.K, p.F, etaL, rng)
		},
	})
}
