package spf

import "dualtopo/internal/obs"

// Package-level telemetry for the SPF core, registered in the default obs
// registry. Every update on a hot path is a single atomic op on a handle
// resolved here at init — no allocation, no branching on configuration — so
// the instrumented Tree/Apply/Route paths keep their AllocsPerRun == 0 pins.
//
// Dirty-set and re-settled-set size distributions are sampled (1 Apply in
// metricsSampleRate) to keep histogram traffic negligible next to the
// counters.
var met = struct {
	treeBucket  *obs.Counter // trees settled through the monotone bucket queue
	treeHeap    *obs.Counter // trees settled through the indexed-heap fallback
	treePartial *obs.Counter // trees served by the dynamic update (TreeUpdate)
	fullRoutes  *obs.Counter
	applies     *obs.Counter
	recomputed  *obs.Counter
	reused      *obs.Counter
	checkpoints *obs.Counter
	reverts     *obs.Counter
	sampleTick  obs.Counter    // local sampling clock, not exported
	dirtySize   *obs.Histogram // sampled: dirty destinations per Apply
	changedArcs *obs.Histogram // sampled: changed arcs per Apply
	resettled   *obs.Histogram // sampled: nodes re-settled per tree update

	// Shape of the last block-sharded full route (MultiPlan.Route or
	// DeltaRouter.Route above one worker): the destination-block claim
	// granularity and how many pool workers actually claimed work (occupancy < pool size means the block size is
	// too coarse for the destination count). Gauge.Set is one atomic store,
	// preserving the route path's AllocsPerRun == 0 pin.
	routeBlockSize       *obs.Gauge
	routeWorkerOccupancy *obs.Gauge
}{
	treeBucket:  obs.Default().CounterVec("spf_trees_total", "SPF trees computed from scratch, by queue implementation.", "queue").With("bucket"),
	treeHeap:    obs.Default().CounterVec("spf_trees_total", "SPF trees computed from scratch, by queue implementation.", "queue").With("heap"),
	treePartial: obs.Default().Counter("spf_trees_partial_total", "Trees served by the dynamic SPF update (raises, lowers, failures, repairs) instead of a full Dijkstra."),
	fullRoutes:  obs.Default().Counter("spf_delta_full_routes_total", "DeltaRouter from-scratch recomputations (initial Route, error recovery)."),
	applies:     obs.Default().Counter("spf_delta_applies_total", "DeltaRouter.Apply calls served incrementally."),
	recomputed:  obs.Default().CounterVec("spf_delta_trees_total", "Per-destination tree outcomes across incremental Applies.", "outcome").With("recomputed"),
	reused:      obs.Default().CounterVec("spf_delta_trees_total", "Per-destination tree outcomes across incremental Applies.", "outcome").With("reused"),
	checkpoints: obs.Default().Counter("spf_delta_checkpoints_total", "DeltaRouter.Checkpoint captures."),
	reverts:     obs.Default().Counter("spf_delta_reverts_total", "DeltaRouter.Revert rollbacks."),
	dirtySize:   obs.Default().Histogram("spf_delta_dirty_trees", "Sampled dirty-destination count per incremental Apply.", obs.ExpBuckets(1, 2, 12)),
	changedArcs: obs.Default().Histogram("spf_delta_changed_arcs", "Sampled changed-arc count per incremental Apply.", obs.ExpBuckets(1, 2, 12)),
	resettled:   obs.Default().Histogram("spf_update_resettled_nodes", "Sampled count of nodes re-settled per dynamic tree update (the affected-set size a slow Apply is attributed to).", obs.ExpBuckets(1, 2, 12)),

	routeBlockSize:       obs.Default().Gauge("spf_route_block_size", "Destination-block claim granularity of the last block-sharded full route."),
	routeWorkerOccupancy: obs.Default().Gauge("spf_route_worker_occupancy", "Workers that claimed at least one destination block in the last block-sharded full route."),
}

// metricsSampleRate thins the size-distribution histograms: one Apply in
// this many contributes an observation. Power of two so the sampler is a
// mask, not a division.
const metricsSampleRate = 8

// sampleApplySizes feeds the sampled histograms from one incremental Apply
// and reports whether this Apply is a sampled one, so its tree updates
// observe their re-settled-set sizes on the same clock.
func sampleApplySizes(dirty, changed int) bool {
	sampled := met.sampleTick.Value()&(metricsSampleRate-1) == 0
	if sampled {
		met.dirtySize.Observe(float64(dirty))
		met.changedArcs.Observe(float64(changed))
	}
	met.sampleTick.Inc()
	return sampled
}
