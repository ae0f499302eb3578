package search

import (
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/obs"
)

// TestDTRRouteWorkersBitwiseTransparent runs the same seeded DTR search
// with the parallel full-route enabled (RouteWorkers=4) and disabled, and
// requires identical trajectories: the sharded all-destinations route must
// be bitwise-equal to sequential routing, so the heuristic cannot tell the
// difference.
func TestDTRRouteWorkersBitwiseTransparent(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			p := tinyParams()
			seq, err := DTR(randomEvaluator(t, kind, 17), p)
			if err != nil {
				t.Fatal(err)
			}
			pp := p
			pp.RouteWorkers = 4
			par, err := DTR(randomEvaluator(t, kind, 17), pp)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Best != par.Best {
				t.Fatalf("best objective: sequential %+v, route-workers %+v", seq.Best, par.Best)
			}
			if seq.Evaluations != par.Evaluations {
				t.Fatalf("evaluations: sequential %d, route-workers %d", seq.Evaluations, par.Evaluations)
			}
			for i := range seq.WH {
				if seq.WH[i] != par.WH[i] || seq.WL[i] != par.WL[i] {
					t.Fatalf("weight divergence at arc %d: sequential (%d,%d), route-workers (%d,%d)",
						i, seq.WH[i], seq.WL[i], par.WH[i], par.WL[i])
				}
			}
		})
	}
}

// TestSTRRouteWorkersBitwiseTransparent is the single-topology twin, also
// covering the ε-relaxation records (fed by full evaluations).
func TestSTRRouteWorkersBitwiseTransparent(t *testing.T) {
	p := tinySTRParams()
	seq, err := STR(randomEvaluator(t, eval.LoadBased, 19), p)
	if err != nil {
		t.Fatal(err)
	}
	pp := p
	pp.RouteWorkers = 4
	par, err := STR(randomEvaluator(t, eval.LoadBased, 19), pp)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Best != par.Best {
		t.Fatalf("best objective: sequential %+v, route-workers %+v", seq.Best, par.Best)
	}
	if seq.Evaluations != par.Evaluations {
		t.Fatalf("evaluations: sequential %d, route-workers %d", seq.Evaluations, par.Evaluations)
	}
	for i := range seq.W {
		if seq.W[i] != par.W[i] {
			t.Fatalf("weight divergence at arc %d: sequential %d, route-workers %d", i, seq.W[i], par.W[i])
		}
	}
	for eps, rec := range seq.Relaxed {
		pr := par.Relaxed[eps]
		if rec.Found != pr.Found || rec.PhiH != pr.PhiH || rec.PhiL != pr.PhiL {
			t.Fatalf("relaxed record ε=%g: sequential %+v, route-workers %+v", eps, rec, pr)
		}
	}
}

// TestDTRRefreshRoutesSharded pins where Params.RouteWorkers reaches: the
// refresh after each diversification routes the incumbent's routing state
// from scratch on the route-worker pool. The spf route-shape gauges, zeroed
// after every event, must hold a sharded route's shape when the
// perturbation event — emitted once the refresh is done — arrives, and be
// untouched at every other step but a routine's first, which follows the
// routine's own refresh: steps route incrementally.
func TestDTRRefreshRoutesSharded(t *testing.T) {
	occupancy := obs.Default().Gauge("spf_route_worker_occupancy", "")
	block := obs.Default().Gauge("spf_route_block_size", "")
	perturbs := 0
	p := tinyParams()
	p.RouteWorkers = 4
	p.OnEvent = func(ev TraceEvent) {
		if ev.Kind != "perturb" {
			if ev.Iter > 0 && occupancy.Value() != 0 {
				t.Fatalf("%s step %d routed sharded: occupancy %v", ev.Kind, ev.Iter, occupancy.Value())
			}
		} else {
			perturbs++
			if occupancy.Value() < 1 || block.Value() < 1 {
				t.Fatalf("refresh after perturbation %d: occupancy %v, block size %v, want a sharded route",
					perturbs, occupancy.Value(), block.Value())
			}
		}
		occupancy.Set(0)
		block.Set(0)
	}
	occupancy.Set(0)
	if _, err := DTR(randomEvaluator(t, eval.LoadBased, 17), p); err != nil {
		t.Fatal(err)
	}
	if perturbs == 0 {
		t.Fatal("no perturbation: the test is vacuous")
	}
}
