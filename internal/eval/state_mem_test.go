// The race detector's instrumented runtime inflates heap figures.
//go:build !race

package eval_test

import (
	"runtime"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/spf"
	"dualtopo/internal/topo"
)

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDTRStateLiveHeap pins the memory of the incremental routing state
// every search, sweep and churn replay keeps alive: a dual-topology
// RoutingState routed at uniform weights on the 8 PoP × 25 router hier ISP
// (200 nodes, 784 arcs, every node a destination of both classes). Per
// destination it holds a tree and support-sized loads; a dense per-arc load
// vector per destination, or a copy of each demand column, would put it
// back above the bound (5.8 MB measured with both).
func TestDTRStateLiveHeap(t *testing.T) {
	const boundMB = 4.5
	inst, err := instance.Spec{
		Topology: instance.TopoHier, Kind: eval.SLABased, Seed: 1,
		TopoParams: &topo.Params{Pops: 8, RoutersPerPop: 25},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := inst.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	w := spf.Uniform(inst.G.NumEdges())
	before := liveHeap()
	st := e.State(eval.RouteDTR)
	if _, err := st.Move([2]spf.Weights{w, w}); err != nil {
		t.Fatal(err)
	}
	mb := float64(liveHeap()-before) / 1e6
	runtime.KeepAlive(st)
	t.Logf("hier-200 DTR routing state: %.2f MB live", mb)
	if mb > boundMB {
		t.Fatalf("hier-200 DTR routing state holds %.2f MB live, want <= %.1f MB", mb, boundMB)
	}
}
