// Package churn replays timestamped topology-event streams — link flaps,
// weight reconfigurations, node outages — through an eval.RoutingState (the
// routing and scoring are the state's; the desired-state model, the time
// integration and the convergence emulation are this package's),
// producing a per-event time series of the paper's objectives plus
// transient metrics a static snapshot cannot show: SLA-violation mass
// integrated over time, disconnected high-priority pairs, per-event reroute
// latency, and (in convergence mode) the traffic lost to stale OSPF trees,
// micro-loops and blackholes while the control plane is still flooding.
//
// Timelines come from a seeded Poisson generator (Generate) or a JSONL
// trace file (ReadTrace/WriteTrace); either way the replay is bitwise
// deterministic for a given timeline and instance.
package churn

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dualtopo/internal/graph"
)

// Kind names one event type in a churn timeline.
type Kind string

// The five event kinds. Link targets are "<uname>-<vname>" using node
// names; node targets are a bare node name.
const (
	LinkDown  Kind = "link-down"
	LinkUp    Kind = "link-up"
	WeightSet Kind = "weight-set"
	NodeDown  Kind = "node-down"
	NodeUp    Kind = "node-up"
)

// valid reports whether k is a known event kind.
func (k Kind) valid() bool {
	switch k {
	case LinkDown, LinkUp, WeightSet, NodeDown, NodeUp:
		return true
	}
	return false
}

// isNode reports whether k targets a node rather than a link.
func (k Kind) isNode() bool { return k == NodeDown || k == NodeUp }

// Event is one timestamped topology change.
type Event struct {
	// T is the event time in seconds since replay start.
	T    float64 `json:"t"`
	Kind Kind    `json:"kind"`
	// Target is "<u>-<v>" (node names) for link events and weight-set,
	// or a bare node name for node events.
	Target string `json:"target"`
	// WH and WL carry the weight-set payload: the new per-direction OSPF
	// weight of the target link in the high and low topology. Zero means
	// "keep the configured weight in that topology".
	WH int `json:"wh,omitempty"`
	WL int `json:"wl,omitempty"`
}

// Timeline is an ordered event stream over a fixed horizon.
type Timeline struct {
	// Horizon is the replay duration in seconds; the steady state after
	// the last event is integrated up to it.
	Horizon float64
	Events  []Event
}

// sortEvents orders events by (time, kind, target, payload) so that
// timelines assembled from independent per-entity processes are
// deterministic regardless of assembly order.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		if a.WH != b.WH {
			return a.WH < b.WH
		}
		return a.WL < b.WL
	})
}

// LinkTarget renders the canonical link target string for the link whose
// ascending-direction arc is id.
func LinkTarget(g *graph.Graph, id graph.EdgeID) string {
	e := g.Edge(id)
	return g.Name(e.From) + "-" + g.Name(e.To)
}

// resolveTarget maps an event's target onto graph entities: the node for
// node events, the two directed arcs of the link otherwise. It is
// allocation-free so replay can resolve per event on the warm path.
func resolveTarget(g *graph.Graph, ev *Event) (node graph.NodeID, uv, vu graph.EdgeID, err error) {
	if ev.Kind.isNode() {
		n, ok := g.NodeByName(ev.Target)
		if !ok {
			return 0, 0, 0, fmt.Errorf("churn: %s target %q: unknown node", ev.Kind, ev.Target)
		}
		return n, 0, 0, nil
	}
	un, vn, ok := strings.Cut(ev.Target, "-")
	if !ok {
		return 0, 0, 0, fmt.Errorf("churn: %s target %q: want \"<u>-<v>\"", ev.Kind, ev.Target)
	}
	u, okU := g.NodeByName(un)
	v, okV := g.NodeByName(vn)
	if !okU || !okV {
		return 0, 0, 0, fmt.Errorf("churn: %s target %q: unknown node", ev.Kind, ev.Target)
	}
	uv, okU = g.ArcBetween(u, v)
	vu, okV = g.ArcBetween(v, u)
	if !okU || !okV {
		return 0, 0, 0, fmt.Errorf("churn: %s target %q: no such link", ev.Kind, ev.Target)
	}
	return 0, uv, vu, nil
}

// traceHeader is the leading line of a JSONL trace file.
type traceHeader struct {
	Trace struct {
		Horizon float64 `json:"horizon_s"`
		Events  int     `json:"events"`
	} `json:"churn_trace"`
}

// WriteTrace writes the timeline as JSONL: one churn_trace header line,
// then one event per line. ReadTrace round-trips the output exactly.
func (tl *Timeline) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr traceHeader
	hdr.Trace.Horizon = tl.Horizon
	hdr.Trace.Events = len(tl.Events)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&hdr); err != nil {
		return fmt.Errorf("churn: write trace header: %w", err)
	}
	for i := range tl.Events {
		if err := enc.Encode(&tl.Events[i]); err != nil {
			return fmt.Errorf("churn: write trace event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace. The churn_trace header is optional (bare
// event streams from other tools load too, with the horizon defaulting to
// the last event time); unknown fields and malformed lines fail loudly
// with the offending line number.
func ReadTrace(r io.Reader) (*Timeline, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	tl := &Timeline{}
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if line == 1 && bytes.Contains(raw, []byte(`"churn_trace"`)) {
			var hdr traceHeader
			if err := json.Unmarshal(raw, &hdr); err != nil {
				return nil, fmt.Errorf("churn: trace line 1: %w", err)
			}
			tl.Horizon = hdr.Trace.Horizon
			sawHeader = true
			continue
		}
		var ev Event
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("churn: trace line %d: %w", line, err)
		}
		if dec.InputOffset() < int64(len(raw)) { // raw ends in non-space
			return nil, fmt.Errorf("churn: trace line %d: data after the event", line)
		}
		if !ev.Kind.valid() {
			return nil, fmt.Errorf("churn: trace line %d: unknown kind %q", line, ev.Kind)
		}
		if ev.T < 0 {
			return nil, fmt.Errorf("churn: trace line %d: negative time %g", line, ev.T)
		}
		tl.Events = append(tl.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("churn: read trace: %w", err)
	}
	sortEvents(tl.Events)
	if !sawHeader && len(tl.Events) > 0 {
		tl.Horizon = tl.Events[len(tl.Events)-1].T
	}
	return tl, nil
}

// Validate resolves every event target against g and checks weight-set
// payload ranges, so trace errors surface before a replay starts.
func (tl *Timeline) Validate(g *graph.Graph) error {
	for i := range tl.Events {
		ev := &tl.Events[i]
		if !ev.Kind.valid() {
			return fmt.Errorf("churn: event %d: unknown kind %q", i, ev.Kind)
		}
		if _, _, _, err := resolveTarget(g, ev); err != nil {
			return fmt.Errorf("churn: event %d (t=%gs): %w", i, ev.T, err)
		}
		if ev.Kind == WeightSet {
			if ev.WH < 0 || ev.WL < 0 || (ev.WH == 0 && ev.WL == 0) {
				return fmt.Errorf("churn: event %d (t=%gs): weight-set needs wh or wl ≥ 1", i, ev.T)
			}
		}
	}
	return nil
}
