package topo

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dualtopo/internal/graph"
)

// ImportFile reads a real-world topology from path and returns it with the
// resolved capacity/delay parameters applied. Two formats are recognized by
// extension: ".gml" parses the Graph Modelling Language subset used by
// Topology-Zoo exports (graph/node/edge blocks with id, label, source,
// target, and optional capacity/bandwidth/delay attributes); anything else
// is read as an adjacency list — one "<u> <v> [capacity [delay]]" line per
// bidirectional link, "#" comments, node names as free-form tokens numbered
// in order of first appearance.
//
// Links without a capacity attribute get p.CapacityMbps. Delays from the
// file are kept under the default "keep" delay model; "uniform" redraws
// them, "none" zeroes them.
func ImportFile(path string, p Params, rng *rand.Rand) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("topo: import: %w", err)
	}
	var g *graph.Graph
	if strings.EqualFold(filepath.Ext(path), ".gml") {
		g, err = parseGML(string(data), p)
	} else {
		g, err = parseAdjacency(string(data), p)
	}
	if err != nil {
		return nil, fmt.Errorf("topo: import %s: %w", path, err)
	}
	switch p.DelayModel {
	case DelayUniform:
		AssignUniformDelays(g, p.MinDelayMs, p.MaxDelayMs, rng)
	case DelayNone:
		for id := 0; id < g.NumEdges(); id++ {
			g.SetDelay(graph.EdgeID(id), 0)
		}
	}
	return g, nil
}

// importBuilder accumulates parsed links, mapping free-form node names to
// dense IDs in order of first appearance and deduplicating repeated pairs
// (Topology-Zoo files often list parallel links; the routing model wants a
// simple graph, so later duplicates are dropped).
type importBuilder struct {
	names []string
	ids   map[string]graph.NodeID
	links []importLink
	seen  map[[2]graph.NodeID]bool
}

type importLink struct {
	u, v            graph.NodeID
	capacity, delay float64
}

func newImportBuilder() *importBuilder {
	return &importBuilder{ids: map[string]graph.NodeID{}, seen: map[[2]graph.NodeID]bool{}}
}

func (b *importBuilder) node(name string) graph.NodeID {
	if id, ok := b.ids[name]; ok {
		return id
	}
	id := b.addNode(name)
	b.ids[name] = id
	return id
}

// addNode appends a node unconditionally — for formats where node identity
// is separate from the display name (GML ids vs labels, which real
// Topology-Zoo exports frequently duplicate).
func (b *importBuilder) addNode(name string) graph.NodeID {
	id := graph.NodeID(len(b.names))
	b.names = append(b.names, name)
	return id
}

func (b *importBuilder) link(u, v graph.NodeID, capacity, delay float64) error {
	if u == v {
		return fmt.Errorf("self-loop at node %q", b.names[u])
	}
	key := [2]graph.NodeID{u, v}
	if u > v {
		key = [2]graph.NodeID{v, u}
	}
	if b.seen[key] {
		return nil // parallel link; keep the first
	}
	b.seen[key] = true
	b.links = append(b.links, importLink{u, v, capacity, delay})
	return nil
}

func (b *importBuilder) build(p Params) (*graph.Graph, error) {
	if len(b.names) == 0 || len(b.links) == 0 {
		return nil, fmt.Errorf("no links found")
	}
	g := graph.New(len(b.names))
	for i, name := range b.names {
		g.SetName(graph.NodeID(i), name)
	}
	for _, l := range b.links {
		capacity := l.capacity
		if capacity <= 0 {
			capacity = p.CapacityMbps
		}
		g.AddLink(l.u, l.v, capacity, l.delay)
	}
	return g, nil
}

// parseAdjacency reads the "<u> <v> [capacity [delay]]" line format.
func parseAdjacency(data string, p Params) (*graph.Graph, error) {
	b := newImportBuilder()
	sc := bufio.NewScanner(strings.NewReader(data))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("line %d: want '<u> <v> [capacity [delay]]', got %d fields", lineNo, len(fields))
		}
		var capacity, delay float64
		var err error
		if len(fields) >= 3 {
			if capacity, err = strconv.ParseFloat(fields[2], 64); err != nil || !(capacity > 0) || math.IsInf(capacity, 1) {
				return nil, fmt.Errorf("line %d: bad capacity %q", lineNo, fields[2])
			}
		}
		if len(fields) == 4 {
			if delay, err = strconv.ParseFloat(fields[3], 64); err != nil || !(delay >= 0) || math.IsInf(delay, 1) {
				return nil, fmt.Errorf("line %d: bad delay %q", lineNo, fields[3])
			}
		}
		if err := b.link(b.node(fields[0]), b.node(fields[1]), capacity, delay); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.build(p)
}

// gmlValue is one parsed GML value: a scalar string or a nested block.
type gmlValue struct {
	scalar string
	block  []gmlField
}

type gmlField struct {
	key   string
	value gmlValue
}

// parseGML reads the GML subset needed for topology files: one top-level
// "graph" block containing "node" blocks (keyed by "id", named by "label")
// and "edge" blocks (keyed by "source"/"target", with optional capacity,
// bandwidth and delay attributes). An attribute that is not a number is
// ignored (a capacity of zero or below likewise falls back to the default);
// a non-finite capacity or delay, and a negative delay, are refused.
func parseGML(data string, p Params) (*graph.Graph, error) {
	tokens, err := tokenizeGML(data)
	if err != nil {
		return nil, err
	}
	fields, rest, err := parseGMLFields(tokens)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("gml: trailing tokens after top-level block")
	}
	var top []gmlField
	for _, f := range fields {
		if f.key == "graph" && f.value.block != nil {
			top = f.value.block
			break
		}
	}
	if top == nil {
		return nil, fmt.Errorf("gml: no graph block")
	}

	b := newImportBuilder()
	gmlIDs := map[string]graph.NodeID{}
	for _, f := range top {
		if f.key != "node" || f.value.block == nil {
			continue
		}
		id, label := "", ""
		for _, nf := range f.value.block {
			switch nf.key {
			case "id":
				id = nf.value.scalar
			case "label":
				label = nf.value.scalar
			}
		}
		if id == "" {
			return nil, fmt.Errorf("gml: node block without id")
		}
		if label == "" {
			label = "gml" + id
		}
		if _, dup := gmlIDs[id]; dup {
			return nil, fmt.Errorf("gml: duplicate node id %s", id)
		}
		// Identity is the GML id; the label is only a display name (labels
		// are not unique in real exports).
		gmlIDs[id] = b.addNode(label)
	}
	for _, f := range top {
		if f.key != "edge" || f.value.block == nil {
			continue
		}
		src, dst := "", ""
		var capacity, delay float64
		for _, ef := range f.value.block {
			switch ef.key {
			case "source":
				src = ef.value.scalar
			case "target":
				dst = ef.value.scalar
			case "capacity", "bandwidth":
				capacity, _ = strconv.ParseFloat(ef.value.scalar, 64)
			case "delay":
				delay, _ = strconv.ParseFloat(ef.value.scalar, 64)
			}
		}
		u, okU := gmlIDs[src]
		v, okV := gmlIDs[dst]
		if !okU || !okV {
			return nil, fmt.Errorf("gml: edge %s->%s references unknown node", src, dst)
		}
		if math.IsNaN(capacity) || math.IsInf(capacity, 0) {
			return nil, fmt.Errorf("gml: edge %s->%s: capacity %g is not finite", src, dst, capacity)
		}
		if !(delay >= 0) || math.IsInf(delay, 1) {
			return nil, fmt.Errorf("gml: edge %s->%s: delay %g is not finite and non-negative", src, dst, delay)
		}
		if err := b.link(u, v, capacity, delay); err != nil {
			return nil, fmt.Errorf("gml: %w", err)
		}
	}
	return b.build(p)
}

// tokenizeGML splits GML into tokens: "[", "]", quoted strings (quotes
// stripped) and bare words. GML comments (#) run to end of line.
func tokenizeGML(data string) ([]string, error) {
	var tokens []string
	i := 0
	for i < len(data) {
		c := data[i]
		switch {
		case c == '#':
			for i < len(data) && data[i] != '\n' {
				i++
			}
		case c == '[' || c == ']':
			tokens = append(tokens, string(c))
			i++
		case c == '"':
			j := i + 1
			for j < len(data) && data[j] != '"' {
				j++
			}
			if j == len(data) {
				return nil, fmt.Errorf("gml: unterminated string at byte %d", i)
			}
			tokens = append(tokens, data[i+1:j])
			i = j + 1
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		default:
			j := i
			for j < len(data) && !strings.ContainsAny(string(data[j]), " \t\r\n[]\"#") {
				j++
			}
			tokens = append(tokens, data[i:j])
			i = j
		}
	}
	return tokens, nil
}

// parseGMLFields parses "key value" pairs until a closing bracket or the
// token stream ends, recursing into "[ ... ]" blocks.
func parseGMLFields(tokens []string) ([]gmlField, []string, error) {
	var fields []gmlField
	for len(tokens) > 0 {
		if tokens[0] == "]" {
			return fields, tokens[1:], nil
		}
		if tokens[0] == "[" {
			return nil, nil, fmt.Errorf("gml: unexpected '['")
		}
		key := tokens[0]
		tokens = tokens[1:]
		if len(tokens) == 0 {
			return nil, nil, fmt.Errorf("gml: key %q without value", key)
		}
		if tokens[0] == "[" {
			block, rest, err := parseGMLFields(tokens[1:])
			if err != nil {
				return nil, nil, err
			}
			fields = append(fields, gmlField{key, gmlValue{block: block}})
			tokens = rest
			continue
		}
		fields = append(fields, gmlField{key, gmlValue{scalar: tokens[0]}})
		tokens = tokens[1:]
	}
	return fields, tokens, nil
}

func init() {
	Register(Generator{
		Name:        "import",
		Description: "real topology from a GML or adjacency-list file (params.path)",
		Defaults: Params{
			CapacityMbps: DefaultCapacity,
			DelayModel:   DelayKeep,
			MinDelayMs:   MinSynthDelayMs,
			MaxDelayMs:   MaxSynthDelayMs,
		},
		Validate: func(p Params) error {
			if err := validateDelay(p); err != nil {
				return err
			}
			if err := noLinksBudget("import", p); err != nil {
				return err
			}
			if p.DelayModel == DelayDistance {
				return fmt.Errorf("topo: import files carry no coordinates; delay_model=distance unsupported")
			}
			if p.Path == "" {
				return fmt.Errorf("topo: import requires params.path")
			}
			if _, err := os.Stat(p.Path); err != nil {
				return fmt.Errorf("topo: import path: %w", err)
			}
			return nil
		},
		Generate: func(p Params, rng *rand.Rand) (*graph.Graph, error) {
			g, err := ImportFile(p.Path, p, rng)
			if err != nil {
				return nil, err
			}
			// A nonzero nodes param acts as a size assertion on the file.
			if p.Nodes != 0 && p.Nodes != g.NumNodes() {
				return nil, fmt.Errorf("topo: import: file has %d nodes, params.nodes wants %d",
					g.NumNodes(), p.Nodes)
			}
			return g, nil
		},
	})
}
