package traffic

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"

	"dualtopo/internal/graph"
)

// Params is the JSON-serializable parameter set shared by every registered
// high-priority traffic model. The zero value of every field means "use the
// model default"; each model validates the subset it reads.
type Params struct {
	// F is the high-priority volume fraction: etaH = etaL * f/(1-f).
	F float64 `json:"f,omitempty"`
	// K is the SD-pair density: roughly k*n*(n-1) ordered pairs carry
	// high-priority traffic.
	K float64 `json:"k,omitempty"`
	// Sinks is the sink-model server count.
	Sinks int `json:"sinks,omitempty"`
	// HotspotFraction is the fraction of nodes acting as hotspots in the
	// bimodal model.
	HotspotFraction float64 `json:"hotspot_fraction,omitempty"`
	// HotspotBoost is the per-pair weight multiplier applied to
	// hotspot-touching pairs in the bimodal model.
	HotspotBoost float64 `json:"hotspot_boost,omitempty"`
}

// overlay returns p with every zero field replaced by the corresponding
// field of def (model defaults compose under explicit params).
func (p Params) overlay(def Params) Params {
	if p.F == 0 {
		p.F = def.F
	}
	if p.K == 0 {
		p.K = def.K
	}
	if p.Sinks == 0 {
		p.Sinks = def.Sinks
	}
	if p.HotspotFraction == 0 {
		p.HotspotFraction = def.HotspotFraction
	}
	if p.HotspotBoost == 0 {
		p.HotspotBoost = def.HotspotBoost
	}
	return p
}

// WithShorthand fills p's zero fields from the flat f/k/sinks shorthand —
// the single fold point for legacy spellings into a params object.
func (p Params) WithShorthand(f, k float64, sinks int) Params {
	return p.overlay(Params{F: f, K: k, Sinks: sinks})
}

// Model is one registered high-priority traffic generator. Generate must be
// deterministic for a given resolved parameter set and rand source.
type Model struct {
	// Name is the registry key ("random", "hotspot", ...).
	Name string
	// Description is a one-line summary shown by CLIs.
	Description string
	// Defaults holds the model's resolved default parameters.
	Defaults Params
	// Validate rejects out-of-range parameters; it sees resolved params.
	Validate func(p Params) error
	// Generate builds the high-priority matrix over topology g, where etaL
	// is the total low-priority volume the f-fraction scales against.
	Generate func(g *graph.Graph, etaL float64, p Params, rng *rand.Rand) (*Matrix, error)
}

var (
	modelMu     sync.RWMutex
	modelByName = map[string]*Model{}
)

// RegisterModel adds a high-priority model to the registry, panicking on
// duplicates (models register from init functions).
func RegisterModel(m Model) {
	if m.Name == "" || m.Generate == nil {
		panic("traffic: RegisterModel: model needs a name and a Generate func")
	}
	modelMu.Lock()
	defer modelMu.Unlock()
	if _, dup := modelByName[m.Name]; dup {
		panic(fmt.Sprintf("traffic: RegisterModel: duplicate model %q", m.Name))
	}
	mm := m
	modelByName[m.Name] = &mm
}

// LookupModel returns the registered model for a name.
func LookupModel(name string) (*Model, bool) {
	modelMu.RLock()
	defer modelMu.RUnlock()
	m, ok := modelByName[name]
	return m, ok
}

// Models returns every registered model name in sorted order.
func Models() []string {
	modelMu.RLock()
	defer modelMu.RUnlock()
	out := make([]string, 0, len(modelByName))
	for name := range modelByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ModelList renders the registry as an "a|b|c" alternation for error
// messages, keeping them in sync with the registered models.
func ModelList() string { return strings.Join(Models(), "|") }

// ResolveModel merges the model's defaults into p and validates the result.
func ResolveModel(name string, p Params) (Params, *Model, error) {
	m, ok := LookupModel(name)
	if !ok {
		return Params{}, nil, fmt.Errorf("traffic: unknown high-priority model %q (%s)", name, ModelList())
	}
	p = p.overlay(m.Defaults)
	if m.Validate != nil {
		if err := m.Validate(p); err != nil {
			return Params{}, nil, err
		}
	}
	return p, m, nil
}

// GenerateHighPriority resolves, validates and runs the named model — the
// single entry point campaign specs and CLIs go through.
func GenerateHighPriority(model string, g *graph.Graph, etaL float64, p Params, rng *rand.Rand) (*Matrix, error) {
	rp, m, err := ResolveModel(model, p)
	if err != nil {
		return nil, err
	}
	return m.Generate(g, etaL, rp, rng)
}

// paperHPDefaults are the §5.1.2 settings shared by the bundled models.
var paperHPDefaults = Params{F: 0.30, K: 0.10, Sinks: 3}

// validateFK checks the shared f/k ranges.
func validateFK(p Params) error {
	if !(p.F > 0 && p.F < 1) {
		return fmt.Errorf("traffic: high-priority fraction f=%g outside (0,1)", p.F)
	}
	if !(p.K > 0 && p.K <= 1) {
		return fmt.Errorf("traffic: SD-pair density k=%g outside (0,1]", p.K)
	}
	return nil
}

func init() {
	RegisterModel(Model{
		Name:        "random",
		Description: "k-density random SD pairs with U[1,4] weights (paper §5.1.2)",
		Defaults:    paperHPDefaults,
		Validate:    validateFK,
		Generate: func(g *graph.Graph, etaL float64, p Params, rng *rand.Rand) (*Matrix, error) {
			return RandomHighPriority(g.NumNodes(), p.K, p.F, etaL, rng)
		},
	})
	RegisterModel(Model{
		Name:        "sink-uniform",
		Description: "popular-server sinks with uniformly scattered clients (paper §5.1.2)",
		Defaults:    paperHPDefaults,
		Validate:    validateSinks,
		Generate: func(g *graph.Graph, etaL float64, p Params, rng *rand.Rand) (*Matrix, error) {
			return SinkHighPriority(g, p.Sinks, p.K, p.F, etaL, UniformClients, rng)
		},
	})
	RegisterModel(Model{
		Name:        "sink-local",
		Description: "popular-server sinks with clients clustered near them (paper §5.2.3)",
		Defaults:    paperHPDefaults,
		Validate:    validateSinks,
		Generate: func(g *graph.Graph, etaL float64, p Params, rng *rand.Rand) (*Matrix, error) {
			return SinkHighPriority(g, p.Sinks, p.K, p.F, etaL, LocalClients, rng)
		},
	})
}

func validateSinks(p Params) error {
	if err := validateFK(p); err != nil {
		return err
	}
	if p.Sinks < 1 {
		return fmt.Errorf("traffic: sink model needs sinks >= 1, got %d", p.Sinks)
	}
	return nil
}
