// The race detector's instrumented runtime inflates heap figures.
//go:build !race

package eval_test

import (
	"math/rand/v2"
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

// TestEvaluatorLiveHeap pins the memory of one evaluator, which every pooled
// dtrd session, search worker and verifying checker keeps alive: on the same
// hier-200 instance, after one STR and one DTR evaluation at random weights,
// it holds one tree per destination — its plan's, over both classes — and no
// tree set per class (2.4 MB measured with one per class and one for STR,
// 0.8 MB with one).
func TestEvaluatorLiveHeap(t *testing.T) {
	const boundMB = 1.5
	inst, err := instance.Spec{
		Topology: instance.TopoHier, Kind: eval.SLABased, Seed: 1,
		TopoParams: &topo.Params{Pops: 8, RoutersPerPop: 25},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	proto, err := inst.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 38))
	w := make([]spf.Weights, 3)
	for k := range w {
		w[k] = make(spf.Weights, inst.G.NumEdges())
		for i := range w[k] {
			w[k][i] = 1 + rng.IntN(20)
		}
	}
	// Size the Result first: its per-arc and per-pair vectors are the
	// caller's, not the evaluator's.
	r := new(eval.Result)
	if err := proto.EvaluateSTRInto(r, w[0]); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	e := proto.Clone()
	if err := e.EvaluateSTRInto(r, w[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.EvaluateDTRInto(r, w[1], w[2]); err != nil {
		t.Fatal(err)
	}
	mb := float64(liveHeap()-before) / 1e6
	runtime.KeepAlive(proto)
	runtime.KeepAlive(e)
	t.Logf("hier-200 evaluator after an STR and a DTR evaluation: %.2f MB live", mb)
	if mb > boundMB {
		t.Fatalf("hier-200 evaluator holds %.2f MB live, want <= %.1f MB", mb, boundMB)
	}
}
