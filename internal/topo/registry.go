package topo

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"

	"dualtopo/internal/graph"
)

// Params is the JSON-serializable parameter set shared by every registered
// topology generator. Each family reads the subset of fields it documents
// and ignores the rest, except where a stray field would contradict the
// family's structure (a links budget on a structurally-linked family, a
// node count that disagrees with rows*cols) — those are rejected. Unknown
// JSON keys are rejected at decode time by the spec loader. The zero value
// of every field means "use the family default".
type Params struct {
	// Nodes is the node count of sized families (random, powerlaw, waxman,
	// ring, hier via pops*routers).
	Nodes int `json:"nodes,omitempty"`
	// Links is the bidirectional link budget of the random and powerlaw
	// families. Families that derive their link set structurally (lattices,
	// waxman, hier, import, isp) reject a nonzero value.
	Links int `json:"links,omitempty"`
	// CapacityMbps is the per-arc capacity (default 500, the paper's).
	CapacityMbps float64 `json:"capacity_mbps,omitempty"`

	// Alpha and Beta are the Waxman link-probability parameters:
	// P(u,v) = alpha * exp(-d(u,v) / (beta * L)).
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`

	// Rows and Cols size the grid and torus lattices.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Chords is the number of diameter chords added to the ring family.
	Chords int `json:"chords,omitempty"`

	// Pops and RoutersPerPop size the two-tier hierarchical ISP family;
	// CoreCapacityX multiplies CapacityMbps on inter-PoP core links.
	Pops          int     `json:"pops,omitempty"`
	RoutersPerPop int     `json:"routers_per_pop,omitempty"`
	CoreCapacityX float64 `json:"core_capacity_x,omitempty"`

	// Path locates the file for the import family (GML or adjacency list).
	Path string `json:"path,omitempty"`

	// DelayModel selects how propagation delays are assigned:
	// "uniform" (symmetric per-link U[MinDelayMs, MaxDelayMs]),
	// "distance" (geometric, for families that place nodes in space),
	// "keep" (preserve delays produced by the generator or import file), or
	// "none" (leave all delays zero).
	DelayModel string `json:"delay_model,omitempty"`
	// MinDelayMs and MaxDelayMs bound the uniform and distance delay
	// models; defaults are the paper's synthetic 1.2-15 ms range.
	MinDelayMs float64 `json:"min_delay_ms,omitempty"`
	MaxDelayMs float64 `json:"max_delay_ms,omitempty"`
}

// Delay model names accepted by Params.DelayModel.
const (
	DelayUniform  = "uniform"
	DelayDistance = "distance"
	DelayKeep     = "keep"
	DelayNone     = "none"
)

// overlay returns p with every zero field replaced by the corresponding
// field of def. It is how family defaults and legacy spec fields compose
// with an explicit params object: explicit wins, defaults fill the rest.
func (p Params) overlay(def Params) Params {
	if p.Nodes == 0 {
		p.Nodes = def.Nodes
	}
	if p.Links == 0 {
		p.Links = def.Links
	}
	if p.CapacityMbps == 0 {
		p.CapacityMbps = def.CapacityMbps
	}
	if p.Alpha == 0 {
		p.Alpha = def.Alpha
	}
	if p.Beta == 0 {
		p.Beta = def.Beta
	}
	if p.Rows == 0 {
		p.Rows = def.Rows
	}
	if p.Cols == 0 {
		p.Cols = def.Cols
	}
	if p.Chords == 0 {
		p.Chords = def.Chords
	}
	if p.Pops == 0 {
		p.Pops = def.Pops
	}
	if p.RoutersPerPop == 0 {
		p.RoutersPerPop = def.RoutersPerPop
	}
	if p.CoreCapacityX == 0 {
		p.CoreCapacityX = def.CoreCapacityX
	}
	if p.Path == "" {
		p.Path = def.Path
	}
	if p.DelayModel == "" {
		p.DelayModel = def.DelayModel
	}
	if p.MinDelayMs == 0 {
		p.MinDelayMs = def.MinDelayMs
	}
	if p.MaxDelayMs == 0 {
		p.MaxDelayMs = def.MaxDelayMs
	}
	return p
}

// Generator is one registered topology family. Generate must be
// deterministic for a given resolved parameter set and rand source, at any
// call site: campaign reproducibility rests on it.
type Generator struct {
	// Name is the registry key ("waxman", "torus", ...).
	Name string
	// Description is a one-line summary shown by `topogen list`.
	Description string
	// Defaults holds the family's fully resolved default parameters.
	Defaults Params
	// Validate rejects out-of-range or inapplicable parameters. It sees
	// fully resolved params (Defaults already overlaid).
	Validate func(p Params) error
	// Generate builds the topology from fully resolved, validated params.
	// Delay assignment is part of generation so the family controls its rng
	// stream layout.
	Generate func(p Params, rng *rand.Rand) (*graph.Graph, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]*Generator{}
)

// Register adds a generator to the registry. It panics on duplicate or
// empty names: families are registered from init functions, and a collision
// is a programming error.
func Register(gen Generator) {
	if gen.Name == "" || gen.Generate == nil {
		panic("topo: Register: generator needs a name and a Generate func")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[gen.Name]; dup {
		panic(fmt.Sprintf("topo: Register: duplicate family %q", gen.Name))
	}
	g := gen
	registry[gen.Name] = &g
}

// Lookup returns the registered generator for a family name.
func Lookup(name string) (*Generator, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	gen, ok := registry[name]
	return gen, ok
}

// Families returns every registered family name in sorted order.
func Families() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FamilyList renders the registry as a "a|b|c" alternation for error
// messages, so they enumerate valid families dynamically instead of going
// stale when one is added.
func FamilyList() string { return strings.Join(Families(), "|") }

// WithSizes fills p's zero sizing fields from flat shorthand values — the
// single fold point for legacy nodes/links/capacity spellings (CLI flags,
// spec shorthand fields) into a params object.
func (p Params) WithSizes(nodes, links int, capacityMbps float64) Params {
	return p.overlay(Params{Nodes: nodes, Links: links, CapacityMbps: capacityMbps})
}

// Resolve merges the family's defaults into p and validates the result.
func Resolve(family string, p Params) (Params, *Generator, error) {
	gen, ok := Lookup(family)
	if !ok {
		return Params{}, nil, fmt.Errorf("topo: unknown topology family %q (%s)", family, FamilyList())
	}
	p = p.overlay(gen.Defaults)
	// Cross-family invariants first, so no family can forget them.
	if p.Nodes < 0 || p.Links < 0 {
		return Params{}, nil, fmt.Errorf("topo: %s: negative size (nodes=%d links=%d)", family, p.Nodes, p.Links)
	}
	if !(p.CapacityMbps > 0) {
		return Params{}, nil, fmt.Errorf("topo: %s: capacity_mbps=%g must be positive", family, p.CapacityMbps)
	}
	if gen.Validate != nil {
		if err := gen.Validate(p); err != nil {
			return Params{}, nil, err
		}
	}
	return p, gen, nil
}

// Generate resolves, validates and runs the named family, returning a
// strongly connected topology. It is the single entry point campaign specs
// and CLIs go through.
func Generate(family string, p Params, rng *rand.Rand) (*graph.Graph, error) {
	rp, gen, err := Resolve(family, p)
	if err != nil {
		return nil, err
	}
	g, err := gen.Generate(rp, rng)
	if err != nil {
		return nil, fmt.Errorf("topo: %s: %w", family, err)
	}
	if err := g.RequireStronglyConnected(); err != nil {
		return nil, fmt.Errorf("topo: %s: %w", family, err)
	}
	return g, nil
}

// delayDefaults are the synthetic families' shared delay settings.
var delayDefaults = Params{
	DelayModel: DelayUniform,
	MinDelayMs: MinSynthDelayMs,
	MaxDelayMs: MaxSynthDelayMs,
}

// validateDelay checks the resolved delay-model fields common to all
// families.
func validateDelay(p Params) error {
	switch p.DelayModel {
	case DelayUniform, DelayDistance, DelayKeep, DelayNone:
	default:
		return fmt.Errorf("topo: unknown delay model %q (%s|%s|%s|%s)",
			p.DelayModel, DelayUniform, DelayDistance, DelayKeep, DelayNone)
	}
	if p.MinDelayMs < 0 || p.MaxDelayMs < p.MinDelayMs {
		return fmt.Errorf("topo: delay range [%g,%g] ms invalid", p.MinDelayMs, p.MaxDelayMs)
	}
	return nil
}

// noLinksBudget rejects a links budget on families whose link set is
// structural.
func noLinksBudget(family string, p Params) error {
	if p.Links != 0 {
		return fmt.Errorf("topo: %s derives its links structurally; params.links must be unset", family)
	}
	return nil
}

func init() {
	Register(Generator{
		Name:        "random",
		Description: "connected topology with near-uniform degrees (paper §5.1.1)",
		Defaults:    Params{Nodes: 30, Links: 75, CapacityMbps: DefaultCapacity}.overlay(delayDefaults),
		Validate: func(p Params) error {
			if err := validateDelay(p); err != nil {
				return err
			}
			if p.DelayModel == DelayDistance {
				return fmt.Errorf("topo: random places no coordinates; delay_model=distance unsupported")
			}
			return nil
		},
		Generate: func(p Params, rng *rand.Rand) (*graph.Graph, error) {
			g, err := Random(p.Nodes, p.Links, p.CapacityMbps, rng)
			if err != nil {
				return nil, err
			}
			applyUniformDelay(g, p, rng)
			return g, nil
		},
	})
	Register(Generator{
		Name:        "powerlaw",
		Description: "Barabási-Albert preferential attachment with hub degrees (paper §5.1.1)",
		Defaults:    Params{Nodes: 30, Links: 81, CapacityMbps: DefaultCapacity}.overlay(delayDefaults),
		Validate: func(p Params) error {
			if err := validateDelay(p); err != nil {
				return err
			}
			if p.DelayModel == DelayDistance {
				return fmt.Errorf("topo: powerlaw places no coordinates; delay_model=distance unsupported")
			}
			return nil
		},
		Generate: func(p Params, rng *rand.Rand) (*graph.Graph, error) {
			g, err := PowerLaw(p.Nodes, p.Links, p.CapacityMbps, rng)
			if err != nil {
				return nil, err
			}
			applyUniformDelay(g, p, rng)
			return g, nil
		},
	})
	Register(Generator{
		Name:        "isp",
		Description: "16-node North-American backbone with geographic delays (paper §5.1.1)",
		Defaults: Params{
			CapacityMbps: DefaultCapacity,
			DelayModel:   DelayDistance,
			MinDelayMs:   8,
			MaxDelayMs:   15,
		},
		Validate: func(p Params) error {
			// Nodes and Links are tolerated but ignored: the backbone is a
			// fixed 16-node graph, and legacy CLIs pass their synthetic-size
			// defaults regardless of family.
			if p.DelayModel != DelayDistance {
				return fmt.Errorf("topo: isp delays are geographic; delay_model must stay %q", DelayDistance)
			}
			return nil
		},
		Generate: func(p Params, rng *rand.Rand) (*graph.Graph, error) {
			return ISPBackbone(p.CapacityMbps), nil
		},
	})
}

// applyUniformDelay applies the resolved delay model for families without
// node coordinates ("uniform" draws from the rng; "keep"/"none" leave the
// generator's values).
func applyUniformDelay(g *graph.Graph, p Params, rng *rand.Rand) {
	if p.DelayModel == DelayUniform {
		AssignUniformDelays(g, p.MinDelayMs, p.MaxDelayMs, rng)
	}
}
