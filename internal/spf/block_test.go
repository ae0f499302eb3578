package spf

import (
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"dualtopo/internal/graph"
	"dualtopo/internal/obs"
	"dualtopo/internal/traffic"
)

// TestBlockShardingBitwiseEquality pins the tentpole invariant of the
// block-sharded parallel route: across block sizes {1, 64, auto} and worker
// counts {1, 4, GOMAXPROCS}, loads and trees are bitwise-equal (==, no
// tolerance) to the sequential path, over random instances and repeated
// warm reroutes.
func TestBlockShardingBitwiseEquality(t *testing.T) {
	workerCounts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	blockSizes := []int{1, 64, 0} // 0 = auto
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 211))
		g, tms := randomInstance(rng, 14+int(seed)*3, 12+int(seed), 2)
		seq := NewMultiPlan(g, tms...)
		par := NewMultiPlan(g, tms...)
		for _, workers := range workerCounts {
			for _, block := range blockSizes {
				par.SetWorkers(workers)
				par.blockSize = block
				for round := 0; round < 3; round++ {
					w := randomWeights(g.NumEdges(), 30, rng)
					if err := seq.Route(w, tms...); err != nil {
						t.Fatal(err)
					}
					if err := par.Route(w, tms...); err != nil {
						t.Fatal(err)
					}
					for mi := range seq.Loads {
						for a := range seq.Loads[mi] {
							if seq.Loads[mi][a] != par.Loads[mi][a] {
								t.Fatalf("seed %d workers %d block %d round %d: load[%d][%d] = %v, sequential %v",
									seed, workers, block, round, mi, a, par.Loads[mi][a], seq.Loads[mi][a])
							}
						}
					}
					for _, dest := range seq.Destinations() {
						requireTreeEqual(t, par.Tree(dest), seq.Tree(dest), "seed %d dest %d: parallel vs sequential", seed, dest)
					}
				}
			}
		}
	}
}

// TestBlockShardingDeterministicError: on a partitioned graph, every
// (workers, block size) combination must surface the identical
// first-in-destination-order disconnection error the sequential path
// reports — not whichever worker lost the race.
func TestBlockShardingDeterministicError(t *testing.T) {
	// Two components: {0,1,2} ring and isolated {3}; demands target both.
	g := graph.New(4)
	g.AddLink(0, 1, 100, 1)
	g.AddLink(1, 2, 100, 1)
	g.AddLink(2, 0, 100, 1)
	tm := traffic.NewMatrix(4)
	tm.Set(0, 1, 5)
	tm.Set(0, 2, 5)
	tm.Set(1, 3, 5) // unreachable: 3 is cut off
	w := Uniform(g.NumEdges())

	seq := NewMultiPlan(g, tm)
	seqErr := seq.Route(w, tm)
	if seqErr == nil {
		t.Fatal("sequential route accepted partitioned demand")
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0) + 1} {
		for _, block := range []int{1, 64, 0} {
			par := NewMultiPlan(g, tm)
			par.SetWorkers(workers)
			par.blockSize = block
			parErr := par.Route(w, tm)
			if parErr == nil {
				t.Fatalf("workers=%d block=%d: accepted partitioned demand", workers, block)
			}
			if parErr.Error() != seqErr.Error() {
				t.Fatalf("workers=%d block=%d: error %q != sequential %q",
					workers, block, parErr, seqErr)
			}
		}
	}
}

func TestAutoWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name           string
		dests, nodes   int
		want           int
		wantSequential bool
	}{
		{"paper instance stays sequential", 30, 30, 1, true},
		{"just below threshold", 1, autoSeqWork - 1, 1, true},
		{"at threshold fans out", 1, autoSeqWork, min(procs, 1), false},
		{"scale instance", 64, 10_000, min(procs, 64), false},
		{"worker cap at destination count", 2, 1 << 20, min(procs, 2), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := autoWorkers(tc.dests, tc.nodes)
			if got != tc.want {
				t.Fatalf("autoWorkers(%d, %d) = %d, want %d", tc.dests, tc.nodes, got, tc.want)
			}
			if tc.wantSequential && got != 1 {
				t.Fatalf("autoWorkers(%d, %d) = %d, want sequential", tc.dests, tc.nodes, got)
			}
		})
	}
}

func TestAutoBlockSize(t *testing.T) {
	cases := []struct {
		name                  string
		dests, nodes, workers int
		want                  int
	}{
		{"sequential degenerates to 1", 100, 50, 1, 1},
		{"fewer dests than workers", 3, 50, 8, 1},
		{"balances four claims per worker", 640, 100, 4, 40},
		{"big-graph cap kicks in", 10_000, 10_000, 4, 6}, // 1<<16/10000 = 6
		{"never below 1", 9, 1 << 20, 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := autoBlockSize(tc.dests, tc.nodes, tc.workers)
			if got != tc.want {
				t.Fatalf("autoBlockSize(%d, %d, %d) = %d, want %d",
					tc.dests, tc.nodes, tc.workers, got, tc.want)
			}
		})
	}
}

// TestRouteShapeGaugesExposed pins the parallel-route telemetry: after a
// block-sharded Route, the spf_route_block_size and
// spf_route_worker_occupancy gauges hold the block granularity and the
// number of workers that claimed work.
func TestRouteShapeGaugesExposed(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 77))
	g, tms := randomInstance(rng, 20, 16, 1)
	p := NewMultiPlan(g, tms...)
	p.SetWorkers(2)
	p.blockSize = 3
	if err := p.Route(randomWeights(g.NumEdges(), 20, rng), tms...); err != nil {
		t.Fatal(err)
	}
	if got := met.routeBlockSize.Value(); got != 3 {
		t.Fatalf("spf_route_block_size = %v, want 3", got)
	}
	occ := met.routeWorkerOccupancy.Value()
	if occ < 1 || occ > 2 {
		t.Fatalf("spf_route_worker_occupancy = %v, want within [1,2]", occ)
	}

	// The gauges must reach the exposition surface every CLI serves.
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"# TYPE spf_route_block_size gauge",
		"# TYPE spf_route_worker_occupancy gauge",
	} {
		if !strings.Contains(sb.String(), frag) {
			t.Fatalf("exposition missing %q", frag)
		}
	}
}
