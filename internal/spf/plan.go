package spf

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dualtopo/internal/graph"
	"dualtopo/internal/traffic"
)

// MultiPlan routes one or more traffic matrices over a single weight setting
// (one SPF tree set), retaining per-destination trees for delay queries.
// This is the evaluation core for both STR (two classes, one topology) and
// each DTR class (one class per topology). A MultiPlan reuses all buffers
// across Route calls and is not safe for concurrent use (Route orchestrates
// its own internal workers when configured; see SetWorkers).
type MultiPlan struct {
	g     *graph.Graph
	comp  *Computer
	dests []graph.NodeID // union of active destinations across matrices
	trees []Tree         // parallel to dests
	byID  []int32        // node -> index into dests, -1 if inactive

	// Loads[i] is the per-arc volume of the i-th matrix after Route.
	Loads [][]float64

	destScratch []float64 // per-destination load staging buffer (kept zeroed)
	xiBuf       []float64

	tmsBuf []*traffic.Matrix // Route's copy of the variadic matrix list

	// workers bounds the SPF worker pool Route shards destination blocks
	// across: 1 is the sequential path (the constructor default), 0 resolves
	// automatically per Route from instance size and GOMAXPROCS, n > 1 pins
	// the pool size. Parallel state is built lazily.
	workers int
	// blockSize is the contiguous-destination claim granularity of the
	// parallel path; 0 auto-tunes (autoBlockSize). Only tests set it.
	blockSize int
	par       *parRoute
}

// NewMultiPlan prepares routing state for the union of destinations active
// in the given matrices. Route must later be called with matrices having the
// same (or a subset of the) active destination sets.
func NewMultiPlan(g *graph.Graph, tms ...*traffic.Matrix) *MultiPlan {
	p := &MultiPlan{
		g:    g,
		comp: NewComputer(g),
		byID: make([]int32, g.NumNodes()),
	}
	for i := range p.byID {
		p.byID[i] = -1
	}
	for _, tm := range tms {
		for _, d := range tm.ActiveDestinations() {
			if p.byID[d] == -1 {
				p.byID[d] = int32(len(p.dests))
				p.dests = append(p.dests, d)
			}
		}
	}
	p.trees = make([]Tree, len(p.dests))
	p.Loads = make([][]float64, len(tms))
	for i := range p.Loads {
		p.Loads[i] = make([]float64, g.NumEdges())
	}
	p.destScratch = make([]float64, g.NumEdges())
	p.workers = 1
	return p
}

// CloneState returns an independent MultiPlan for the same instance, sharing
// only the immutable destination index (dests, byID). Fresh trees, loads and
// buffers are allocated, so the clone can route concurrently with the
// original. The clone always starts sequential (workers = 1): clones back
// evaluator pools whose goroutines are already the parallelism, so nesting
// SPF workers under them would only oversubscribe. This is what evaluator
// pools use: the O(n²) active-destination scan happens once, not once per
// worker.
func (p *MultiPlan) CloneState() *MultiPlan {
	c := &MultiPlan{
		g:     p.g,
		comp:  NewComputer(p.g),
		dests: p.dests,
		byID:  p.byID,
		trees: make([]Tree, len(p.dests)),
		Loads: make([][]float64, len(p.Loads)),
	}
	for i := range c.Loads {
		c.Loads[i] = make([]float64, p.g.NumEdges())
	}
	c.destScratch = make([]float64, p.g.NumEdges())
	c.workers = 1
	return c
}

// SetWorkers bounds the SPF worker pool Route shards destination blocks
// across. n == 1 (or negative) restores the sequential path; n == 0 selects
// the worker count automatically per Route from the instance's work volume
// (destinations × nodes) and GOMAXPROCS — small instances stay sequential,
// large ones fan out. Parallel and sequential routing are bitwise-identical:
// workers only compute per-destination contributions, which a single ordered
// reduction then folds exactly as the sequential loop would.
func (p *MultiPlan) SetWorkers(n int) {
	if n < 0 {
		n = 1
	}
	p.workers = n
}

// autoWorkers picks the worker count for SetWorkers(0): sequential below a
// work-volume threshold (the fork/join and claim overhead dwarfs tiny
// instances), else one worker per core capped by the destination count.
func autoWorkers(numDests, numNodes int) int {
	if int64(numDests)*int64(numNodes) < autoSeqWork {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > numDests {
		w = numDests
	}
	if w < 1 {
		w = 1
	}
	return w
}

// autoSeqWork is the destinations × nodes volume below which auto worker
// selection stays sequential. The paper-scale 30-node instances (≤ 900
// units) route in tens of microseconds — spawning workers there loses — while
// a 10k-node, 64-destination scale instance (640k units) gains ~core-count.
const autoSeqWork = 1 << 17

// autoBlockSize picks the contiguous-destination claim granularity: enough
// blocks to balance claimsPerWorker-ways per worker, but no block so large
// that one worker's tail claim stalls the join, and never larger than
// needed to amortize claim overhead on big graphs (per-destination work
// scales with the node count, so large instances tolerate fine blocks).
func autoBlockSize(numDests, numNodes, workers int) int {
	if workers <= 1 || numDests <= workers {
		return 1
	}
	// Aim for ~4 claims per worker so a straggling block can be absorbed.
	b := numDests / (4 * workers)
	// Cap by per-destination weight: past ~64k nodes-worth of work per
	// block, claim overhead is already invisible and smaller blocks only
	// improve balance.
	if maxB := 1 << 16 / max(numNodes, 1); b > maxB {
		b = maxB
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Destinations returns the active destination union.
func (p *MultiPlan) Destinations() []graph.NodeID { return p.dests }

// Route computes shortest-path DAGs under w and aggregates each matrix's
// demands into the corresponding Loads slice.
//
// Aggregation is grouped per destination: each destination's contribution is
// routed into an all-zero staging buffer and then folded into the aggregate
// over its support, the arcs it loaded. Because every arc receives at most
// one addition per destination and destinations fold in ascending index
// order, the parallel path (SetWorkers > 1) and the incremental DeltaRouter
// both reproduce this exact floating-point summation sequence — which is
// what makes all three engines bitwise-equal.
func (p *MultiPlan) Route(w Weights, tms ...*traffic.Matrix) error {
	p.tmsBuf = append(p.tmsBuf[:0], tms...)
	workers := p.workers
	if workers == 0 {
		workers = autoWorkers(len(p.dests), p.g.NumNodes())
	}
	maxW := maxWeight(w) // one scan per weight setting, not per destination
	if err := checkDistRange(p.g.NumNodes(), maxW); err != nil {
		return err
	}
	if workers > 1 && len(p.dests) > 1 {
		return p.routeParallel(w, workers, maxW)
	}
	for i := range p.tmsBuf {
		loads := p.Loads[i]
		for j := range loads {
			loads[j] = 0
		}
	}
	scratch := p.destScratch
	for di, dest := range p.dests {
		p.comp.tree(dest, w, &p.trees[di], maxW)
		for mi := range p.tmsBuf {
			// The computer's DAG staging buffer is idle between tree builds
			// and holds one slot per arc, room for any support.
			sup, err := p.destLoads(p.comp, di, mi, scratch, p.comp.stage[:0])
			if err != nil {
				return err
			}
			loads := p.Loads[mi]
			for _, a := range sup {
				loads[a] += scratch[a]
				scratch[a] = 0
			}
		}
	}
	return nil
}

// destLoads routes matrix mi's demand column toward destination di over its
// tree into scratch, which must be all-zero, and appends the arcs it loaded
// to sup: the one per-destination routine under the sequential and the
// parallel path, each of which then drains scratch over sup its own way. The
// column is read in place (traffic.Matrix.Column). Reachability is validated
// before any load is written, so on error scratch is still all-zero and sup
// unchanged.
func (p *MultiPlan) destLoads(comp *Computer, di, mi int, scratch []float64, sup []graph.EdgeID) ([]graph.EdgeID, error) {
	col := p.tmsBuf[mi].Column(p.dests[di])
	if col == nil {
		return sup, nil
	}
	return comp.addLoadsTracked(&p.trees[di], col, scratch, sup)
}

// parRoute is MultiPlan's parallel full-route state: per-worker computers
// and staging buffers, per-destination support lists (arc IDs plus values),
// and the pre-built worker closures the spawn loop reuses so a warm
// parallel Route performs no closure allocations.
type parRoute struct {
	p       *MultiPlan
	comps   []*Computer
	scratch [][]float64 // per worker, dense per-arc staging (kept zeroed)
	fns     []func()
	claimed []int // per worker, destinations processed in the last Route

	// supArcs/supVals[di][mi] hold destination di's contribution to matrix
	// mi as a compacted support list, the input of the ordered reduction.
	supArcs [][][]graph.EdgeID
	supVals [][][]float64
	errs    []error // per destination, for deterministic error selection

	w     Weights
	maxW  int // bucket-width selector, computed once per Route
	block int // contiguous destinations per claim
	next  atomic.Int64
	wg    sync.WaitGroup
}

// ensurePar sizes the parallel state for the given worker count and matrix
// count, building it lazily so sequential users pay nothing.
func (p *MultiPlan) ensurePar(nw, nmat int) *parRoute {
	pr := p.par
	if pr == nil {
		pr = &parRoute{p: p}
		p.par = pr
	}
	for len(pr.comps) < nw {
		wk := len(pr.comps)
		pr.comps = append(pr.comps, NewComputer(p.g))
		pr.scratch = append(pr.scratch, make([]float64, p.g.NumEdges()))
		pr.fns = append(pr.fns, func() { pr.worker(wk) })
		pr.claimed = append(pr.claimed, 0)
	}
	if pr.supArcs == nil {
		pr.supArcs = make([][][]graph.EdgeID, len(p.dests))
		pr.supVals = make([][][]float64, len(p.dests))
		pr.errs = make([]error, len(p.dests))
	}
	for di := range pr.supArcs {
		for len(pr.supArcs[di]) < nmat {
			pr.supArcs[di] = append(pr.supArcs[di], nil)
			pr.supVals[di] = append(pr.supVals[di], nil)
		}
	}
	return pr
}

// routeParallel shards the destinations of the Route call across the worker
// pool in contiguous blocks, then folds the per-destination support lists
// into the aggregate loads in ascending destination order — the sequential
// path's exact floating-point summation sequence. Block claiming only
// changes which worker computes which slot, never the reduction order, so
// results are bitwise-identical at any worker count and block size.
func (p *MultiPlan) routeParallel(w Weights, workers, maxW int) error {
	nw := workers
	if nw > len(p.dests) {
		nw = len(p.dests)
	}
	pr := p.ensurePar(nw, len(p.tmsBuf))
	pr.w = w
	pr.maxW = maxW
	pr.block = p.blockSize
	if pr.block <= 0 {
		pr.block = autoBlockSize(len(p.dests), p.g.NumNodes(), nw)
	}
	pr.next.Store(0)
	for i := 0; i < nw; i++ {
		pr.claimed[i] = 0
	}
	pr.wg.Add(nw)
	for i := 0; i < nw; i++ {
		go pr.fns[i]()
	}
	pr.wg.Wait()
	met.routeBlockSize.Set(float64(pr.block))
	busy := 0
	for i := 0; i < nw; i++ {
		if pr.claimed[i] > 0 {
			busy++
		}
	}
	met.routeWorkerOccupancy.Set(float64(busy))
	for di := range p.dests {
		if err := pr.errs[di]; err != nil {
			return err
		}
	}
	for mi := range p.tmsBuf {
		loads := p.Loads[mi]
		for a := range loads {
			loads[a] = 0
		}
		for di := range p.dests {
			arcs := pr.supArcs[di][mi]
			vals := pr.supVals[di][mi]
			for k, a := range arcs {
				loads[a] += vals[k]
			}
		}
	}
	return nil
}

// worker claims contiguous destination blocks off the shared counter until
// none remain. Blocks amortize the claim atomic and keep each worker's tree
// and scratch state walking adjacent destinations; any claim order yields
// the same result, because workers only fill per-destination slots and the
// reduction replays them in destination order.
func (pr *parRoute) worker(wk int) {
	defer pr.wg.Done()
	nd := len(pr.p.dests)
	b := int64(pr.block)
	for {
		end := pr.next.Add(b)
		start := int(end - b)
		if start >= nd {
			return
		}
		stop := int(end)
		if stop > nd {
			stop = nd
		}
		pr.claimed[wk] += stop - start
		for di := start; di < stop; di++ {
			pr.errs[di] = pr.routeDest(wk, di)
		}
	}
}

// routeDest computes one destination's tree and compacts its per-matrix
// load contributions into support lists, restoring the worker's dense
// staging buffer to all-zeros afterwards.
func (pr *parRoute) routeDest(wk, di int) error {
	p := pr.p
	dest := p.dests[di]
	comp := pr.comps[wk]
	comp.tree(dest, pr.w, &p.trees[di], pr.maxW)
	scratch := pr.scratch[wk]
	for mi := range p.tmsBuf {
		sup, err := p.destLoads(comp, di, mi, scratch, pr.supArcs[di][mi][:0])
		vals := pr.supVals[di][mi][:0]
		for _, a := range sup { // empty on error
			vals = append(vals, scratch[a])
			scratch[a] = 0
		}
		pr.supArcs[di][mi] = sup
		pr.supVals[di][mi] = vals
		if err != nil {
			return err
		}
	}
	return nil
}

// Tree returns the routing tree toward dest from the last Route call, or nil
// if dest is not an active destination.
func (p *MultiPlan) Tree(dest graph.NodeID) *Tree {
	i := p.byID[dest]
	if i < 0 {
		return nil
	}
	return &p.trees[i]
}

// DelaysTo returns expected delays from every node to dst given per-arc
// delays. The returned slice is reused by the next DelaysTo call. It panics
// on an inactive destination.
func (p *MultiPlan) DelaysTo(dst graph.NodeID, arcDelay []float64) []float64 {
	t := p.Tree(dst)
	if t == nil {
		panic("spf: DelaysTo on inactive destination")
	}
	p.xiBuf = t.Delays(p.g, arcDelay, p.xiBuf)
	return p.xiBuf
}

// Plan routes a single traffic matrix under changing weight settings. It is
// a MultiPlan specialized to one matrix, exposing its loads as a flat slice.
type Plan struct {
	mp *MultiPlan

	// Loads is the per-arc volume after the last Route call.
	Loads []float64
}

// NewPlan prepares routing state for the destinations active in tm.
func NewPlan(g *graph.Graph, tm *traffic.Matrix) *Plan {
	mp := NewMultiPlan(g, tm)
	return &Plan{mp: mp, Loads: mp.Loads[0]}
}

// CloneState returns an independent Plan for the same instance, sharing only
// the immutable destination index. See MultiPlan.CloneState.
func (p *Plan) CloneState() *Plan {
	mp := p.mp.CloneState()
	return &Plan{mp: mp, Loads: mp.Loads[0]}
}

// SetWorkers bounds the SPF worker pool used by Route; see
// MultiPlan.SetWorkers (1 = sequential, 0 = auto, n > 1 = fixed).
func (p *Plan) SetWorkers(n int) { p.mp.SetWorkers(n) }

// Destinations returns the active destination set.
func (p *Plan) Destinations() []graph.NodeID { return p.mp.Destinations() }

// Route computes shortest-path DAGs for every active destination under w and
// aggregates tm's demands into p.Loads.
func (p *Plan) Route(w Weights, tm *traffic.Matrix) error {
	return p.mp.Route(w, tm)
}

// Tree returns the routing tree toward dest from the last Route call, or nil
// if dest is not an active destination.
func (p *Plan) Tree(dest graph.NodeID) *Tree { return p.mp.Tree(dest) }

// DelaysTo returns expected delays from every node to dst. The returned
// slice is reused by the next DelaysTo call.
func (p *Plan) DelaysTo(dst graph.NodeID, arcDelay []float64) []float64 {
	return p.mp.DelaysTo(dst, arcDelay)
}

// Loads is a convenience wrapper: route tm under w on g and return the
// per-arc load vector.
func Loads(g *graph.Graph, w Weights, tm *traffic.Matrix) ([]float64, error) {
	p := NewPlan(g, tm)
	if err := p.Route(w, tm); err != nil {
		return nil, err
	}
	return p.Loads, nil
}
