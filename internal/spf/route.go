package spf

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dualtopo/internal/graph"
	"dualtopo/internal/traffic"
)

// routeCore is the full-route state MultiPlan, LoadRoute and DeltaRouter
// share: the destination index, the trees, the aggregate loads, and the
// per-destination routine (destLoads) their retaining routes stage loads
// through. The retaining full route (routeRetained) keeps every
// destination's contribution as a support list and is what DeltaRouter.Route
// and the sharded Route run; the sequential Route pushes each destination
// straight into Loads (Computer.AddLoads) and retains nothing. A route skips
// a destination that none of the routed matrices loads.
type routeCore struct {
	g     *graph.Graph
	comp  *Computer
	dests []graph.NodeID    // union of active destinations across matrices
	byID  []int32           // node -> index into dests, -1 if inactive
	trees []Tree            // parallel to dests; one per route worker if loadOnly
	tms   []*traffic.Matrix // the matrices routed, read in place
	// loadOnly is fixed at construction (NewLoadRoute); Tree returns nil.
	loadOnly bool

	// Loads[mi] is the per-arc volume of matrix mi after a route.
	Loads [][]float64

	// scratch is an all-zero per-arc vector between uses: a destination's
	// loads are routed into it and compacted into the support lists. It is
	// allocated with them, on the first retaining route.
	scratch []float64
	xiBuf   []float64

	// sup[di][mi] lists the arcs destination di loads for matrix mi, in
	// load-discovery order, and vals[di][mi] their loads, parallel to it and
	// sized to it; both are empty when di receives no demand from mi. They
	// are built on the first retaining route: a DeltaRouter keeps them
	// current, a MultiPlan only needs them for the sharded reduction.
	sup  [][][]graph.EdgeID
	vals [][][]float64

	// workers bounds the pool routeRetained shards destination blocks
	// across: 1 runs inline (the constructors' default), 0 resolves
	// automatically per route from instance size and GOMAXPROCS, n > 1 pins
	// the pool size. blockSize is the claim granularity; 0 auto-tunes
	// (autoBlockSize), and only tests set it.
	workers   int
	blockSize int
	par       *parRoute
}

// newRouteCore indexes the union of destinations active in tms, in matrix
// then destination order, and sizes the trees and loads for it.
func newRouteCore(g *graph.Graph, tms []*traffic.Matrix, loadOnly bool) routeCore {
	c := routeCore{g: g, byID: make([]int32, g.NumNodes()), loadOnly: loadOnly}
	for i := range c.byID {
		c.byID[i] = -1
	}
	for _, tm := range tms {
		for _, d := range tm.ActiveDestinations() {
			if c.byID[d] == -1 {
				c.byID[d] = int32(len(c.dests))
				c.dests = append(c.dests, d)
			}
		}
	}
	f := c.fresh(len(tms))
	f.tms = slices.Clone(tms)
	return f
}

// fresh returns a core sharing only c's immutable destination index (dests,
// byID) and kind, with its own computer, trees and nmat load vectors,
// routing inline.
func (c *routeCore) fresh(nmat int) routeCore {
	f := routeCore{g: c.g, dests: c.dests, byID: c.byID, loadOnly: c.loadOnly, comp: NewComputer(c.g), workers: 1}
	f.trees = make([]Tree, len(c.dests))
	if c.loadOnly {
		f.trees = make([]Tree, 1)
	}
	f.Loads = make([][]float64, nmat)
	for i := range f.Loads {
		f.Loads[i] = make([]float64, c.g.NumEdges())
	}
	return f
}

// SetWorkers bounds the SPF worker pool a from-scratch route shards
// destination blocks across. n == 1 (or negative) routes on the caller's
// goroutine; n == 0 selects the worker count automatically per route from
// the instance's work volume (destinations × nodes) and GOMAXPROCS — small
// instances stay sequential, large ones fan out. Every worker count is
// bitwise-identical: workers only compute per-destination contributions,
// which a single ordered reduction then folds exactly as one worker would.
func (c *routeCore) SetWorkers(n int) {
	if n < 0 {
		n = 1
	}
	c.workers = n
}

// workerCount resolves the worker bound for one route: at least one, at
// most one per destination.
func (c *routeCore) workerCount() int {
	nw := c.workers
	if nw == 0 {
		nw = autoWorkers(len(c.dests), c.g.NumNodes())
	}
	return max(min(nw, len(c.dests)), 1)
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

// Destinations returns the active destination union. Callers must not
// modify it.
func (c *routeCore) Destinations() []graph.NodeID { return c.dests }

// Tree returns the routing tree toward dest from the last route, or nil if
// dest is not an active destination, the last route skipped it (none of the
// matrices routed loads it), or the core keeps no trees (loadOnly).
func (c *routeCore) Tree(dest graph.NodeID) *Tree {
	i := c.byID[dest]
	if i < 0 || c.loadOnly || len(c.trees[i].Dist) == 0 {
		return nil
	}
	return &c.trees[i]
}

// buildTree builds destination di's tree under w into worker wk's tree for
// it — di's own, or on a loadOnly core the worker's one reused tree — and
// returns it, unless no routed matrix loads di. Then it returns nil, with
// di's own tree marked unbuilt (no distances) so Tree never hands back a
// stale one; no matrix has a column to push over a nil tree.
func (c *routeCore) buildTree(comp *Computer, di, wk int, w Weights, maxW int) *Tree {
	ti := di
	if c.loadOnly {
		ti = wk
	}
	t := &c.trees[ti]
	for _, tm := range c.tms {
		if tm.Column(c.dests[di]) != nil {
			comp.tree(c.dests[di], w, t, maxW)
			return t
		}
	}
	t.Dist = t.Dist[:0]
	return nil
}

// DelaysTo returns expected delays from every node to dst given per-arc
// delays. The returned slice is reused by the next DelaysTo call. It panics
// where Tree returns nil.
func (c *routeCore) DelaysTo(dst graph.NodeID, arcDelay []float64) []float64 {
	t := c.Tree(dst)
	if t == nil {
		panic("spf: DelaysTo on a destination with no tree")
	}
	c.xiBuf = t.Delays(c.g, arcDelay, c.xiBuf)
	return c.xiBuf
}

// destLoads routes matrix mi's demand column toward destination di over t
// into scratch, which must be all-zero, and returns the arcs it loaded,
// collected in comp's DAG staging buffer (idle between tree builds, one slot
// per arc): the one per-destination routine under every retaining route,
// whose caller drains scratch over the arcs. The column is read in place
// (traffic.Matrix.Column). Reachability is validated before any load is
// written, so on error scratch is still all-zero and no arc is returned.
func (c *routeCore) destLoads(comp *Computer, t *Tree, di, mi int, scratch []float64) ([]graph.EdgeID, error) {
	col := c.tms[mi].Column(c.dests[di])
	if col == nil {
		return nil, nil
	}
	return comp.addLoadsTracked(t, col, scratch, comp.stage[:0])
}

// keepLoads routes every matrix toward destination di over t, its current
// tree, and compacts the loads into sup[di] and vals[di], leaving scratch
// all-zero. The arcs are copied out of the staging buffer, so a list first
// allocated here fits its support exactly. It stops at the first matrix with
// unreachable demand, whose lists it leaves empty.
func (c *routeCore) keepLoads(comp *Computer, t *Tree, scratch []float64, di int) error {
	for mi := range c.tms {
		arcs, err := c.destLoads(comp, t, di, mi, scratch)
		sup := append(c.sup[di][mi][:0], arcs...)
		vals := slices.Grow(c.vals[di][mi][:0], len(sup))
		for _, a := range sup {
			vals = append(vals, scratch[a])
			scratch[a] = 0
		}
		c.sup[di][mi], c.vals[di][mi] = sup, vals
		if err != nil {
			return err
		}
	}
	return nil
}

// routeRetained is the retaining full route: every loaded destination's
// tree is rebuilt under w (buildTree) and its loads kept as support lists,
// which a single reduction then folds into Loads in ascending destination
// order — the floating-point summation sequence of the sequential Route. At
// nw == 1 it runs on the caller's goroutine; above, the caller and nw−1
// goroutines claim contiguous destination blocks off a shared counter.
// Claiming only changes which worker computes which destination, never the
// reduction order, so results are bitwise-identical at any worker count and
// block size. A destination with unreachable demand stops the claiming past
// it, and the error returned is the first in destination order, as one
// worker would find it: every destination before it is still routed.
// maxW must be w's maximum weight, already checked by checkDistRange.
func (c *routeCore) routeRetained(w Weights, maxW, nw int) error {
	for _, loads := range c.Loads[:len(c.tms)] {
		clear(loads)
	}
	if c.sup == nil {
		c.scratch = make([]float64, c.g.NumEdges())
		c.sup = make([][][]graph.EdgeID, len(c.dests))
		c.vals = make([][][]float64, len(c.dests))
		for di := range c.dests {
			c.sup[di] = make([][]graph.EdgeID, len(c.Loads))
			c.vals[di] = make([][]float64, len(c.Loads))
		}
	}
	pr := c.ensurePar(nw)
	pr.w, pr.maxW = w, maxW
	pr.block = c.blockSize
	if pr.block <= 0 {
		pr.block = autoBlockSize(len(c.dests), c.g.NumNodes(), nw)
	}
	pr.next.Store(0)
	pr.failed.Store(int64(len(c.dests)))
	clear(pr.claimed[:nw])
	pr.wg.Add(nw - 1)
	for i := 1; i < nw; i++ {
		go pr.fns[i]()
	}
	pr.work(0)
	pr.wg.Wait()
	if nw > 1 {
		met.routeBlockSize.Set(float64(pr.block))
		busy := 0
		for _, n := range pr.claimed[:nw] {
			if n > 0 {
				busy++
			}
		}
		met.routeWorkerOccupancy.Set(float64(busy))
	}
	if f := pr.failed.Load(); f < int64(len(c.dests)) {
		return pr.errs[f]
	}
	for mi := range c.tms {
		loads := c.Loads[mi]
		for di := range c.dests {
			vals := c.vals[di][mi]
			for k, a := range c.sup[di][mi] {
				loads[a] += vals[k]
			}
		}
	}
	return nil
}

// parRoute is routeRetained's worker pool: per-worker computers and staging
// buffers (worker 0's are the core's own), per-destination errors for
// deterministic error selection, and the pre-built worker closures the
// spawn loop reuses so a warm sharded route performs no closure
// allocations. It holds no routed state: the trees and support lists are the
// core's.
type parRoute struct {
	c       *routeCore
	comps   []*Computer
	scratch [][]float64 // per worker, dense per-arc staging (kept zeroed)
	fns     []func()
	claimed []int   // per worker, destinations processed in the last route
	errs    []error // per destination, read only at failed

	w      Weights
	maxW   int // bucket-width selector, computed once per route
	block  int // contiguous destinations per claim
	next   atomic.Int64
	failed atomic.Int64 // lowest destination found with unreachable demand, else len(dests)
	wg     sync.WaitGroup
}

// ensurePar sizes the worker pool for nw workers, building it lazily so a
// core that never routes retained pays nothing.
func (c *routeCore) ensurePar(nw int) *parRoute {
	if c.par == nil {
		c.par = &parRoute{c: c, errs: make([]error, len(c.dests))}
	}
	for len(c.par.comps) < nw {
		c.par.grow()
	}
	return c.par
}

// grow adds one worker. Worker 0 routes on the core's own computer, scratch
// vector and (loadOnly) tree.
func (pr *parRoute) grow() {
	wk := len(pr.comps)
	if wk == 0 {
		pr.comps = append(pr.comps, pr.c.comp)
		pr.scratch = append(pr.scratch, pr.c.scratch)
	} else {
		pr.comps = append(pr.comps, NewComputer(pr.c.g))
		pr.scratch = append(pr.scratch, make([]float64, pr.c.g.NumEdges()))
		if pr.c.loadOnly {
			pr.c.trees = append(pr.c.trees, Tree{})
		}
	}
	pr.fns = append(pr.fns, func() {
		defer pr.wg.Done()
		pr.work(wk)
	})
	pr.claimed = append(pr.claimed, 0)
}

// work claims contiguous destination blocks off the shared counter until
// none remain. Blocks amortize the claim atomic and keep each worker's tree
// and scratch state walking adjacent destinations; any claim order yields
// the same result, because workers only fill per-destination slots and the
// reduction replays them in destination order. Destinations past the
// lowest failed one are skipped: claims rise, so every destination below it
// has been or will be routed, which is all the error verdict needs.
func (pr *parRoute) work(wk int) {
	c := pr.c
	comp, scratch := pr.comps[wk], pr.scratch[wk]
	nd := int64(len(c.dests))
	b := int64(pr.block)
	for {
		end := pr.next.Add(b)
		di := end - b
		if di >= pr.failed.Load() {
			return
		}
		stop := min(end, nd)
		pr.claimed[wk] += int(stop - di)
		for ; di < stop && di < pr.failed.Load(); di++ {
			t := c.buildTree(comp, int(di), wk, pr.w, pr.maxW)
			if pr.errs[di] = c.keepLoads(comp, t, scratch, int(di)); pr.errs[di] != nil {
				for f := pr.failed.Load(); di < f; f = pr.failed.Load() {
					if pr.failed.CompareAndSwap(f, di) {
						break
					}
				}
				break
			}
		}
	}
}
