package churn

import (
	"fmt"
	"math/rand/v2"

	"dualtopo/internal/graph"
)

// GenSpec parameterizes the Poisson churn generator. Every process is
// seeded per entity from Seed through SplitMix64, so the timeline for a
// given (graph, spec) is fully deterministic and adding one knob never
// perturbs another process's stream.
type GenSpec struct {
	Seed uint64
	// Horizon is the simulated duration in seconds (default 600).
	Horizon float64
	// LinkMTBF/LinkMTTR are the mean up-time between failures and mean
	// repair time of each link, seconds (exponential holding times, the
	// classic flap/repair alternating renewal process). LinkMTBF == 0
	// disables link flapping; LinkMTTR defaults to 10s.
	LinkMTBF float64
	LinkMTTR float64
	// NodeMTBF/NodeMTTR do the same per node (maintenance windows,
	// crashes). NodeMTBF == 0 disables node churn. A replay does not yet
	// drop a downed node's own demand: that demand has no path, so from a
	// node-down until the node returns every record is disconnected (ΦH,
	// ΦL and max utilization read 0) and the return is a full re-route.
	// Masking that demand needs the routers and plans of package spf to
	// skip a down node's sources and destinations.
	NodeMTBF float64
	NodeMTTR float64
	// WeightRate is the network-wide rate of operator weight
	// reconfigurations (events per second); each picks a uniform link and
	// uniform new weights in [WMin, WMax] for both topologies.
	WeightRate float64
	// WMin and WMax bound weight-set payloads (defaults 1 and 20).
	WMin, WMax int
	// Intensity is the Magnien-style global churn multiplier: it scales
	// every failure and reconfiguration rate (repair times are left
	// alone), so sweeping it moves a scenario from calm to pathological
	// without re-tuning individual knobs. Default 1.
	Intensity float64
}

// normalized fills defaults without mutating the caller's spec.
func (s GenSpec) normalized() (GenSpec, error) {
	if s.Horizon == 0 {
		s.Horizon = 600
	}
	if s.Horizon < 0 {
		return s, fmt.Errorf("churn: horizon %gs is negative", s.Horizon)
	}
	if s.LinkMTBF < 0 || s.LinkMTTR < 0 || s.NodeMTBF < 0 || s.NodeMTTR < 0 || s.WeightRate < 0 {
		return s, fmt.Errorf("churn: rates and mean times must be non-negative")
	}
	if s.LinkMTTR == 0 {
		s.LinkMTTR = 10
	}
	if s.NodeMTTR == 0 {
		s.NodeMTTR = 60
	}
	if s.WMin == 0 {
		s.WMin = 1
	}
	if s.WMax == 0 {
		s.WMax = 20
	}
	if s.WMin < 1 || s.WMax < s.WMin {
		return s, fmt.Errorf("churn: weight range [%d,%d] invalid", s.WMin, s.WMax)
	}
	if s.Intensity == 0 {
		s.Intensity = 1
	}
	if s.Intensity < 0 {
		return s, fmt.Errorf("churn: intensity %g is negative", s.Intensity)
	}
	return s, nil
}

// Validate reports the first invalid knob without needing a graph —
// campaign specs validate before any instance is built.
func (s GenSpec) Validate() error {
	_, err := s.normalized()
	return err
}

// splitmix64 is the SplitMix64 finalizer — the same stream-splitting
// discipline internal/scenario uses for trial seeds (kept local because
// scenario imports this package).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Domain-separation constants for the per-entity streams ("link", "node",
// "wset" in ASCII), so link i's flap process never correlates with node
// i's outage process.
const (
	streamLink = 0x6c696e6b
	streamNode = 0x6e6f6465
	streamWSet = 0x77736574
)

// entityRNG returns the dedicated RNG of entity index i in stream domain.
func entityRNG(seed uint64, domain, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(
		splitmix64(seed^domain),
		splitmix64(seed^domain^(i+1)*0x9e3779b97f4a7c15),
	))
}

// links enumerates the graph's bidirectional links by their
// ascending-direction arc (the arc whose ID is below its reverse's);
// one-way arcs are not links and never churn.
func links(g *graph.Graph) []graph.EdgeID {
	var out []graph.EdgeID
	for id := 0; id < g.NumEdges(); id++ {
		rev, ok := g.Reverse(graph.EdgeID(id))
		if ok && graph.EdgeID(id) < rev {
			out = append(out, graph.EdgeID(id))
		}
	}
	return out
}

// Generate builds a Timeline for g from spec. Each link (and node, when
// enabled) alternates exponential up/down holding times; weight
// reconfigurations arrive as a network-wide Poisson process. Events are
// merged and sorted by (time, kind, target), so the result is independent
// of generation order.
func Generate(g *graph.Graph, spec GenSpec) (*Timeline, error) {
	spec, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	ls := links(g)
	tl := &Timeline{Horizon: spec.Horizon}

	flap := func(rng *rand.Rand, mtbf, mttr float64, down, up Kind, target string) {
		t := 0.0
		for {
			t += rng.ExpFloat64() * mtbf / spec.Intensity
			if t >= spec.Horizon {
				return
			}
			tl.Events = append(tl.Events, Event{T: t, Kind: down, Target: target})
			t += rng.ExpFloat64() * mttr
			if t >= spec.Horizon {
				return // still down at the horizon: the outage persists
			}
			tl.Events = append(tl.Events, Event{T: t, Kind: up, Target: target})
		}
	}

	if spec.LinkMTBF > 0 {
		for i, id := range ls {
			flap(entityRNG(spec.Seed, streamLink, uint64(i)),
				spec.LinkMTBF, spec.LinkMTTR, LinkDown, LinkUp, LinkTarget(g, id))
		}
	}
	if spec.NodeMTBF > 0 {
		for u := 0; u < g.NumNodes(); u++ {
			flap(entityRNG(spec.Seed, streamNode, uint64(u)),
				spec.NodeMTBF, spec.NodeMTTR, NodeDown, NodeUp, g.Name(graph.NodeID(u)))
		}
	}
	if spec.WeightRate > 0 && len(ls) > 0 {
		rng := entityRNG(spec.Seed, streamWSet, 0)
		rate := spec.WeightRate * spec.Intensity
		span := spec.WMax - spec.WMin + 1
		for t := rng.ExpFloat64() / rate; t < spec.Horizon; t += rng.ExpFloat64() / rate {
			id := ls[rng.IntN(len(ls))]
			tl.Events = append(tl.Events, Event{
				T:      t,
				Kind:   WeightSet,
				Target: LinkTarget(g, id),
				WH:     spec.WMin + rng.IntN(span),
				WL:     spec.WMin + rng.IntN(span),
			})
		}
	}
	sortEvents(tl.Events)
	return tl, nil
}
