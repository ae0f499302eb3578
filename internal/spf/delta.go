package spf

import (
	"fmt"

	"dualtopo/internal/graph"
	"dualtopo/internal/traffic"
)

// DeltaStats counts what the incremental engine actually did — the
// observability hook for tests and benchmarks pinning the delta/full ratio.
type DeltaStats struct {
	// Applies counts Apply calls served incrementally.
	Applies int64
	// FullRoutes counts from-scratch recomputations (initial Route, error
	// recovery, Apply on an invalid router, and an Apply without an armed
	// checkpoint that changes at least half the arcs).
	FullRoutes int64
	// TreesRecomputed and TreesReused count per-destination SPF outcomes
	// across incremental Applies.
	TreesRecomputed int64
	TreesReused     int64
	// TreesPartial counts recomputed trees served by the dynamic update
	// (TreeUpdate) instead of a full Dijkstra — every one of them, since
	// Apply has no other path.
	TreesPartial int64
	// Reverts counts Checkpoint rollbacks.
	Reverts int64
}

// DeltaRouter incrementally maintains per-destination shortest-path trees
// and per-arc load aggregates for one or more traffic matrices under an
// evolving weight setting.
//
// A full Route computes every destination tree. Apply takes the set of arcs
// whose weights changed and updates (Computer.TreeUpdate) only the trees the
// change can invalidate, per the dynamic-SPF rule of ArcInvariant; every
// other tree keeps both its distances and its ECMP DAG, so its routed loads
// are bitwise-unchanged (Tree.Order is canonical).
//
// Dirty destinations have their old load contribution subtracted exactly —
// each destination's loads are retained as a support list (the arcs it
// loads and their values, nothing per unloaded arc), and touched arcs are
// re-aggregated in the same floating-point order MultiPlan.Route uses — so
// incremental results are bitwise-equal to a fresh full Route.
//
// Demand columns are aliased, not copied: the router reads each matrix's
// column in place (traffic.Matrix.Column), so the matrices it routes must
// not be mutated once the router exists.
//
// A DeltaRouter is not safe for concurrent use. After any error the router
// is invalid and the next Apply falls back to a full Route.
type DeltaRouter struct {
	// routeCore holds the trees, the aggregate Loads — maintained
	// bitwise-equal to what MultiPlan.Route would produce — and every
	// destination's support lists (sup/vals), which a full Route rebuilds
	// and Apply keeps current. Per-destination state is thus support-sized,
	// never arc-count-sized, and so are the marking and re-aggregation
	// passes, whose sums accumulate in the core's scratch vector.
	routeCore
	csr   *graph.CSR
	w     Weights
	valid bool

	changedBuf []graph.EdgeID
	raised     []graph.EdgeID // changedBuf split by direction, for TreeUpdate
	lowered    []graph.EdgeID
	moved      []graph.EdgeID
	movedMark  []bool
	touched    []bool
	touchList  []graph.EdgeID
	dirty      []bool
	dirtyList  []int
	allArcs    []graph.EdgeID

	// Checkpoint state (see Checkpoint/Revert): pre-images of everything an
	// Apply mutates, captured lazily per dirtied destination.
	cpActive    bool
	cpW         Weights
	cpLoads     [][]float64
	cpSaved     []bool
	cpSavedList []int
	cpDest      []destSave

	stats DeltaStats
}

// destSave is one destination's checkpointed routing state: the tree's
// arrays plus, per matrix, the support list and its load values. Only Dist
// is copied; every other array is the one the Apply replaced, handed over by
// swap, and Revert swaps them all back. Order is saved once it moves.
type destSave struct {
	dist       []int32
	order      []graph.NodeID
	orderSaved bool
	nextStart  []int32
	nextArcs   []graph.EdgeID
	sup        [][]graph.EdgeID
	vals       [][]float64
}

// NewDeltaRouter prepares incremental routing state for the union of
// destinations active in the given matrices. The router reads demand
// columns in place (traffic.Matrix.Column), so the matrices must not be
// mutated while it exists. Call Route before the first Apply, or let Apply
// fall back to a full Route.
func NewDeltaRouter(g *graph.Graph, tms ...*traffic.Matrix) *DeltaRouter {
	m := g.NumEdges()
	r := &DeltaRouter{
		routeCore: newRouteCore(g, tms, false),
		csr:       g.CSR(),
		w:         make(Weights, m),
	}
	nd := len(r.dests)
	r.touched = make([]bool, m)
	r.movedMark = make([]bool, m)
	r.dirty = make([]bool, nd)
	r.allArcs = make([]graph.EdgeID, m)
	for a := range r.allArcs {
		r.allArcs[a] = graph.EdgeID(a)
	}
	return r
}

// Weights returns the router's current weight setting. Callers must not
// modify it.
func (r *DeltaRouter) Weights() Weights { return r.w }

// Valid reports whether the router holds a consistent routed state.
func (r *DeltaRouter) Valid() bool { return r.valid }

// Stats returns cumulative incremental-engine counters.
func (r *DeltaRouter) Stats() DeltaStats { return r.stats }

// TreeDirty reports whether dest's tree was recomputed by the last
// successful Route (always true) or Apply. Inactive destinations are never
// dirty.
func (r *DeltaRouter) TreeDirty(dest graph.NodeID) bool {
	i := r.byID[dest]
	return i >= 0 && r.dirty[i]
}

// TreeUsesArc reports whether arc id lies on the ECMP DAG toward dest under
// the current weights. It panics on an inactive destination.
func (r *DeltaRouter) TreeUsesArc(dest graph.NodeID, id graph.EdgeID) bool {
	i := r.byID[dest]
	if i < 0 {
		panic("spf: TreeUsesArc on inactive destination")
	}
	t := &r.trees[i]
	w := r.w[id]
	if w == Disabled {
		return false
	}
	dv := t.Dist[r.csr.To[id]]
	return dv != unreachable && dv+int32(w) == t.Dist[r.csr.From[id]]
}

// Route recomputes every tree and load vector from scratch under w and
// snapshots w as the router's current setting. This is both the
// initialization path and the fallback when incremental state is unusable.
// It is the retaining form of MultiPlan's route, sharded across the worker
// pool SetWorkers bounds (inline at one worker, the default) and
// bitwise-identical at every worker count, the returned error included.
func (r *DeltaRouter) Route(w Weights) error {
	if len(w) != len(r.w) {
		return fmt.Errorf("spf: delta router has %d arcs, weights cover %d", len(r.w), len(w))
	}
	copy(r.w, w)
	r.valid = false
	r.cpActive = false // wholesale rewrite: any checkpoint is stale
	r.stats.FullRoutes++
	met.fullRoutes.Inc()
	maxW := maxWeight(r.w)
	if err := checkDistRange(r.g.NumNodes(), maxW); err != nil {
		return err
	}
	for di := range r.dirty {
		r.dirty[di] = true
	}
	if err := r.routeRetained(r.w, maxW, r.workerCount()); err != nil {
		return err
	}
	r.valid = true
	return nil
}

// changedBy reports whether moving arc a's weight from oldW to newW can
// change t, by ArcInvariant's rule. Sums are widened to int64, so no weight
// wraps them, and a Disabled oldW is on no DAG.
func (t *Tree) changedBy(csr *graph.CSR, a graph.EdgeID, oldW, newW int) bool {
	dv := int64(t.Dist[csr.To[a]])
	if oldW == newW || dv == unreachable {
		return false
	}
	du := int64(t.Dist[csr.From[a]])
	return (oldW != Disabled && dv+int64(oldW) == du) || (newW < oldW && dv+int64(newW) <= du)
}

// ArcInvariant reports whether moving arc a's weight from oldW to newW
// provably leaves every tree of the router — distances and ECMP DAG — and so
// every load as it is. It is the dynamic-SPF rule Apply dirties trees with;
// a move changes a tree only if
//
//   - the arc lies on the tree's ECMP DAG (Dist[to]+oldW == Dist[from]),
//     whatever the direction of the move, or
//   - the move lowers the arc to Dist[to]+newW <= Dist[from] (a weight
//     decrease, or a repair, creating a shorter or new equal-cost path).
//
// An arc whose head cannot reach the destination changes nothing, and
// Disabled is the largest weight: a failure is a raise, a repair a lower.
// Valid after a successful Route or Apply.
func (r *DeltaRouter) ArcInvariant(a graph.EdgeID, oldW, newW int) bool {
	for di := range r.trees {
		if r.trees[di].changedBy(r.csr, a, oldW, newW) {
			return false
		}
	}
	return true
}

// Apply transitions the router to w, where changed lists every arc whose
// weight differs from the router's current setting (a superset is fine:
// unchanged listed arcs are skipped). It recomputes only invalidated trees
// and returns the arcs whose aggregate Loads changed; the slice is reused by
// the next call. After an initial Route, results are bitwise-equal to a
// fresh full Route(w).
//
// On an invalid router, or when no checkpoint is armed and at least half the
// arcs change, Apply routes from scratch (Route) and reports every arc as
// moved. On error the router becomes invalid; the caller must treat
// its state as unspecified until the next successful call.
func (r *DeltaRouter) Apply(w Weights, changed []graph.EdgeID) ([]graph.EdgeID, error) {
	if !r.valid {
		if err := r.Route(w); err != nil {
			return nil, err
		}
		return r.allArcs, nil
	}
	// Keep only arcs that actually changed, split by direction against the
	// old weights (Disabled is the largest weight, so a failure is a raise
	// and a repair a lower).
	actual, raised, lowered := r.changedBuf[:0], r.raised[:0], r.lowered[:0]
	for _, id := range changed {
		switch {
		case w[id] > r.w[id]:
			actual = append(actual, id)
			raised = append(raised, id)
		case w[id] < r.w[id]:
			actual = append(actual, id)
			lowered = append(lowered, id)
		}
	}
	r.changedBuf, r.raised, r.lowered = actual, raised, lowered
	// A wholesale transition — half the arcs or more — would update nearly
	// every tree, each at several times a Dijkstra's cost: route from
	// scratch instead, unless a checkpoint needs the pre-images.
	if !r.cpActive && 2*len(actual) >= len(r.w) {
		if err := r.Route(w); err != nil {
			return nil, err
		}
		return r.allArcs, nil
	}
	r.stats.Applies++
	met.applies.Inc()
	for di := range r.dirty {
		r.dirty[di] = false
	}
	if len(actual) == 0 {
		r.moved = r.moved[:0]
		return r.moved, nil
	}

	// Invalidation pass against the stored trees and old weights.
	r.dirtyList = r.dirtyList[:0]
	for di := range r.dests {
		t := &r.trees[di]
		for _, id := range actual {
			if t.changedBy(r.csr, id, r.w[id], w[id]) {
				r.dirty[di] = true
				r.dirtyList = append(r.dirtyList, di)
				break
			}
		}
	}
	for _, id := range actual {
		r.w[id] = w[id]
	}
	r.stats.TreesRecomputed += int64(len(r.dirtyList))
	r.stats.TreesPartial += int64(len(r.dirtyList))
	r.stats.TreesReused += int64(len(r.dests) - len(r.dirtyList))
	met.recomputed.Add(int64(len(r.dirtyList)))
	met.treePartial.Add(int64(len(r.dirtyList)))
	met.reused.Add(int64(len(r.dests) - len(r.dirtyList)))
	sampled := sampleApplySizes(len(r.dirtyList), len(actual))
	if len(r.dirtyList) == 0 {
		r.moved = r.moved[:0]
		return r.moved, nil
	}

	// Update dirty trees and their per-destination loads. Every arc in the
	// union of old and new supports is "touched"; all passes are
	// support-sized, never arc-count-sized. The int32 distance-range guard
	// comes first: raises lengthen distances.
	if err := CheckDistRange(r.g.NumNodes(), r.w); err != nil {
		r.valid = false
		return nil, err
	}
	r.touchList = r.touchList[:0]
	mark := func(sup []graph.EdgeID) {
		for _, a := range sup {
			if !r.touched[a] {
				r.touched[a] = true
				r.touchList = append(r.touchList, a)
			}
		}
	}
	for _, di := range r.dirtyList {
		for mi := range r.tms {
			mark(r.sup[di][mi])
		}
		first := r.saveDest(di)
		resettled := r.comp.TreeUpdate(r.w, &r.trees[di], raised, lowered)
		// The arrays the update replaced sit in its double buffer: the flat
		// DAG and (once it moves) Order complete di's pre-image.
		if r.cpActive {
			ds, u := &r.cpDest[di], &r.comp.upd
			if first {
				ds.nextStart, u.newStart = u.newStart, ds.nextStart
				ds.nextArcs, u.newArcs = u.newArcs, ds.nextArcs
			}
			if u.orderMoved && !ds.orderSaved {
				ds.order, u.newOrder = u.newOrder, ds.order
				ds.orderSaved = true
			}
		}
		if sampled {
			met.resettled.Observe(float64(resettled))
		}
		if err := r.keepLoads(r.comp, &r.trees[di], r.scratch, di); err != nil {
			r.valid = false
			for _, a := range r.touchList {
				r.touched[a] = false
			}
			return nil, err
		}
		for mi := range r.tms {
			mark(r.sup[di][mi])
		}
	}

	// Re-aggregate touched arcs in full-Route order: per arc, sum every
	// destination's contribution in ascending destination order — the exact
	// floating-point sequence Route and MultiPlan.Route perform (the
	// destination-outer loop fixes it; the iteration order of touched arcs
	// is irrelevant to the per-arc sums, so touchList stays unsorted and the
	// moved list is deterministic but unordered). The loop reads each
	// destination's supports and values sequentially, so work scales with
	// the loaded arcs, not the graph. The sums accumulate in the scratch
	// vector, which the compare pass zeroes again.
	r.moved = r.moved[:0]
	sums := r.scratch
	for mi := range r.tms {
		for di := range r.dests {
			vals := r.vals[di][mi]
			for k, a := range r.sup[di][mi] {
				if r.touched[a] {
					sums[a] += vals[k]
				}
			}
		}
		loads := r.Loads[mi]
		for _, a := range r.touchList {
			sum := sums[a]
			sums[a] = 0
			if sum != loads[a] {
				loads[a] = sum
				if !r.movedMark[a] {
					r.movedMark[a] = true
					r.moved = append(r.moved, a)
				}
			}
		}
	}
	for _, a := range r.touchList {
		r.touched[a] = false
	}
	for _, a := range r.moved {
		r.movedMark[a] = false
	}
	return r.moved, nil
}

// Checkpoint captures the router's current routed state so a later Revert
// can restore it bitwise without recomputation. The capture is lazy: only
// the weight and aggregate-load vectors are copied now (O(arcs)); each
// destination's tree and per-destination loads are saved the first time an
// Apply dirties it, mostly by taking the arrays the Apply replaces. This
// turns the undo of a what-if — even a disconnecting failure — into a
// support-sized swap instead of a Dijkstra-and-reaggregate pass.
//
// A checkpoint stays armed until Revert, a new Checkpoint (which re-bases
// it), or a full Route (which makes it stale and disarms it).
func (r *DeltaRouter) Checkpoint() error {
	if !r.valid {
		return fmt.Errorf("spf: checkpoint on an invalid router")
	}
	if r.cpW == nil {
		r.cpW = make(Weights, len(r.w))
		r.cpLoads = make([][]float64, len(r.tms))
		for mi := range r.cpLoads {
			r.cpLoads[mi] = make([]float64, len(r.w))
		}
		r.cpSaved = make([]bool, len(r.dests))
		r.cpDest = make([]destSave, len(r.dests))
	}
	copy(r.cpW, r.w)
	for mi := range r.Loads {
		copy(r.cpLoads[mi], r.Loads[mi])
	}
	for _, di := range r.cpSavedList {
		r.cpSaved[di] = false
	}
	r.cpSavedList = r.cpSavedList[:0]
	r.cpActive = true
	met.checkpoints.Inc()
	return nil
}

// saveDest starts destination di's pre-image on its first dirtying after a
// Checkpoint, before its tree update, and reports whether it did. The
// support lists change hands: keepLoads refills the previous pre-image's.
func (r *DeltaRouter) saveDest(di int) bool {
	if !r.cpActive || r.cpSaved[di] {
		return false
	}
	r.cpSaved[di] = true
	r.cpSavedList = append(r.cpSavedList, di)
	ds := &r.cpDest[di]
	ds.dist = append(ds.dist[:0], r.trees[di].Dist...)
	ds.orderSaved = false
	if ds.sup == nil {
		ds.sup = make([][]graph.EdgeID, len(r.tms))
		ds.vals = make([][]float64, len(r.tms))
	}
	for mi := range r.tms {
		ds.sup[mi], r.sup[di][mi] = r.sup[di][mi], ds.sup[mi]
		ds.vals[mi], r.vals[di][mi] = r.vals[di][mi], ds.vals[mi]
	}
	return true
}

// CheckpointArmed reports whether a Checkpoint is armed — captured and not
// yet consumed by Revert or invalidated by a full Route. Session pools use
// this to detect a leaked Checkpoint (armed at release time), which would
// otherwise silently poison the next reuse of the router: the stale
// pre-images would roll a future what-if back to a routing the new user
// never established.
func (r *DeltaRouter) CheckpointArmed() bool { return r.cpActive }

// Reset discards all routed state and disarms any checkpoint: the next
// Apply (or Route) recomputes everything from scratch. This is the recovery
// path for pooled routers whose incremental state can no longer be trusted —
// after a leaked checkpoint, or between logically unrelated leases.
func (r *DeltaRouter) Reset() {
	r.valid = false
	r.cpActive = false
}

// Revert restores the routed state captured by the armed checkpoint —
// trees, per-destination loads, supports, aggregate loads, and weights —
// and revalidates the router (recovering even from an error that
// invalidated it, since every mutation since the checkpoint was saved
// first). It is a no-op without an armed checkpoint, and disarms it.
func (r *DeltaRouter) Revert() {
	if !r.cpActive {
		return
	}
	r.stats.Reverts++
	met.reverts.Inc()
	for _, di := range r.cpSavedList {
		ds, t := &r.cpDest[di], &r.trees[di]
		t.Dist, ds.dist = ds.dist, t.Dist
		t.NextStart, ds.nextStart = ds.nextStart, t.NextStart
		t.NextArcs, ds.nextArcs = ds.nextArcs, t.NextArcs
		if ds.orderSaved {
			t.Order, ds.order = ds.order, t.Order
		}
		for mi := range r.tms {
			r.sup[di][mi], ds.sup[mi] = ds.sup[mi], r.sup[di][mi]
			r.vals[di][mi], ds.vals[mi] = ds.vals[mi], r.vals[di][mi]
		}
		r.cpSaved[di] = false
	}
	r.cpSavedList = r.cpSavedList[:0]
	copy(r.w, r.cpW)
	for mi := range r.Loads {
		copy(r.Loads[mi], r.cpLoads[mi])
	}
	for di := range r.dirty {
		r.dirty[di] = false
	}
	r.valid = true
	r.cpActive = false
}

// DiffArcs appends to buf the arcs on which a and b differ, returning the
// extended slice — the changed-arc set for an Apply transitioning between
// arbitrary settings.
func DiffArcs(a, b Weights, buf []graph.EdgeID) []graph.EdgeID {
	for i := range a {
		if a[i] != b[i] {
			buf = append(buf, graph.EdgeID(i))
		}
	}
	return buf
}
