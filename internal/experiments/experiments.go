// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each experiment is a registered runner that builds the
// paper's topology/traffic configuration, runs the STR baseline and the DTR
// heuristic, and reports the same series or rows the paper plots.
//
// Effort scales with a Preset: the search budgets of one search.Budget tier
// (Tiny keeps integration tests fast, Small is the default for regenerating
// results on a laptop, Paper uses the publication budgets N=300000,
// K=800000) plus the sweep shape (load points, parallelism, trials).
// Instances are built by internal/instance and optimized through the
// scenario engine's point runner.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dualtopo/internal/render"
	"dualtopo/internal/search"
)

// Preset scales experiment effort.
type Preset struct {
	Name string
	// DTR and STR are the search budgets applied at every sweep point.
	DTR search.Params
	STR search.STRParams
	// Points is the number of network-load points per sweep.
	Points int
	// Parallel bounds concurrently executed sweep points.
	Parallel int
}

// Tiny returns the preset used by integration tests: two load points.
func Tiny() Preset { return newPreset("tiny", search.TinyBudget(), 2, 2) }

// Smoke returns the preset for exercising CLI paths on very large
// (10k-node-class) instances: one load point.
func Smoke() Preset { return newPreset("smoke", search.SmokeBudget(), 1, 1) }

// Small returns the default preset for regenerating results: a few minutes
// per figure on commodity hardware.
func Small() Preset { return newPreset("small", search.SmallBudget(), 5, 2) }

// PaperPreset returns the publication budgets of §5.1.3 (N=300000, K=800000
// as published). Expect very long runtimes; regenerate results with Small
// (dtrexp -preset small; README, "Commands").
func PaperPreset() Preset { return newPreset("paper", search.PaperBudget(), 7, 2) }

func newPreset(name string, b search.Budget, points, parallel int) Preset {
	return Preset{Name: name, DTR: b.DTR, STR: b.STR, Points: points, Parallel: parallel}
}

// PresetByName resolves "smoke", "tiny", "small" or "paper", in any case.
func PresetByName(name string) (Preset, error) {
	for _, p := range []Preset{Smoke(), Tiny(), Small(), PaperPreset()} {
		if strings.EqualFold(name, p.Name) {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("experiments: unknown preset %q (smoke|tiny|small|paper)", name)
}

// TableBlock is a rendered-as-table result section.
type TableBlock struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Report is the outcome of one experiment: series (figure-style results),
// tables, or both, plus free-form notes about modelling choices.
type Report struct {
	ID, Title string
	XLabel    string
	Series    []render.Series
	Tables    []TableBlock
	Notes     []string
}

// String renders the full report as text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) > 0 {
		b.WriteString(render.SeriesTable(r.XLabel, r.Series, "%.4g"))
	}
	for _, tb := range r.Tables {
		if tb.Title != "" {
			fmt.Fprintf(&b, "\n-- %s --\n", tb.Title)
		}
		b.WriteString(render.Table(tb.Header, tb.Rows))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces one experiment's report under a preset.
type Runner struct {
	ID, Title string
	Run       func(Preset) (*Report, error)
}

var registry = map[string]Runner{}

func register(r Runner) {
	if _, dup := registry[r.ID]; dup {
		panic("experiments: duplicate id " + r.ID)
	}
	registry[r.ID] = r
}

// IDs lists registered experiments in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Lookup returns the runner for id.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// Run executes the experiment with the given id.
func Run(id string, p Preset) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r.Run(p)
}

// linspace returns n evenly spaced values from lo to hi inclusive.
func linspace(lo, hi float64, n int) []float64 {
	if n <= 1 {
		return []float64{(lo + hi) / 2}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}
