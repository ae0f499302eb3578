package search

import (
	"fmt"
	"strings"
)

// Budget bundles the effort of one STR → DTR optimization: the DTR search
// parameters and the STR baseline's.
type Budget struct {
	DTR Params
	STR STRParams
}

// TinyBudget returns the integration-test budgets: real topologies, small
// search budgets, single-threaded (and therefore bitwise-deterministic)
// searches.
func TinyBudget() Budget {
	d := Defaults()
	d.N, d.K, d.M, d.Neighbors, d.Workers = 120, 80, 40, 4, 1
	s := STRDefaults()
	s.Iterations, s.Candidates, s.M, s.Workers = 300, 4, 60, 1
	return Budget{DTR: d, STR: s}
}

// SmokeBudget returns the minimal budgets for exercising CLI paths on very
// large (10k-node-class) instances: just enough iterations to drive both
// searches' accept and diversification machinery, so a smoke run finishes in
// seconds where the tiny budgets would take minutes.
func SmokeBudget() Budget {
	b := TinyBudget()
	b.DTR.N, b.DTR.K, b.DTR.M, b.DTR.Neighbors = 12, 8, 6, 2
	b.STR.Iterations, b.STR.Candidates, b.STR.M = 30, 2, 10
	return b
}

// SmallBudget returns the default laptop-scale budgets: a few minutes per
// sweep on commodity hardware.
func SmallBudget() Budget {
	d := Defaults()
	d.N, d.K, d.M, d.Workers = 2000, 1200, 300, 1
	s := STRDefaults()
	s.Iterations, s.Candidates, s.M, s.Workers = 6000, 5, 300, 1
	return Budget{DTR: d, STR: s}
}

// PaperBudget returns the publication budgets of §5.1.3 (N=300000,
// K=800000). Expect very long runtimes.
func PaperBudget() Budget {
	return Budget{DTR: Defaults(), STR: STRDefaults()}
}

// BudgetByName resolves "smoke", "tiny", "small" or "paper", in any case.
func BudgetByName(name string) (Budget, error) {
	switch strings.ToLower(name) {
	case "smoke":
		return SmokeBudget(), nil
	case "tiny":
		return TinyBudget(), nil
	case "small":
		return SmallBudget(), nil
	case "paper":
		return PaperBudget(), nil
	default:
		return Budget{}, fmt.Errorf("search: unknown budget tier %q (smoke|tiny|small|paper)", name)
	}
}
