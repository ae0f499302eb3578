// Package scenario is the declarative what-if engine over dual-topology
// routing: it turns a data-driven campaign Spec (topology family, traffic
// models, objective, load sweep, optional link failures, search budgets,
// trial count) into a deterministic work-list of problem instances, executes
// them on a bounded worker pool, and aggregates the paper's metrics (ΦH, ΦL,
// RH, RL, max utilization, SLA violations) into mean/p50/p95 summaries.
//
// Each trial is one instance.Spec, built by internal/instance and optimized
// at a search.Budget tier (RunPoint). The curated runners of
// internal/experiments sweep points through RunPoints too, while arbitrary
// new campaigns arrive as JSON specs through cmd/dtrscen or the bundled
// preset library.
//
// Determinism is a contract, not an accident: every trial derives its own
// sub-seed from the campaign seed via a splittable SplitMix64 scheme (no
// global RNG, no seed reuse across trials), so re-running a spec — at any
// worker count — reproduces byte-identical aggregates.
package scenario

import (
	"dualtopo/internal/instance"
	"dualtopo/internal/search"
)

type (
	// InstanceSpec is instance.Spec, kept for bench/; the next benchmark PR
	// retargets it and deletes this.
	InstanceSpec = instance.Spec
	// Instance is instance.Instance, kept for bench/; the next benchmark PR
	// retargets it and deletes this.
	Instance = instance.Instance
)

// TinyBudget is search.TinyBudget, kept for bench/; the next benchmark PR
// retargets it and deletes this.
func TinyBudget() search.Budget { return search.TinyBudget() }
