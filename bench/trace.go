package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// A span is one timed call from the benchmark into a layer's public API.
// Nothing inside the program is instrumented, so a child span is a replay of
// its parent's input through the next layer down, taken right after the
// parent returned — not an observation nested inside it. Parent and Op tie a
// replay ladder together; spans with Op < 0 are stand-alone reference
// measurements that belong to no op.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1: root of an op, or stand-alone
	Op     int32  `json:"op"`     // -1: stand-alone
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the number of work items the span covers (trees, states);
	// per-item metrics divide by it.
	Count int32 `json:"count"`
}

func (s span) dur() int64 { return s.End - s.Start }

const noSpan = -1

// maxSpans bounds the preallocated span store; a traced phase ends early
// rather than grow it.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. It is safe for the
// closed-loop clients to share.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// full reports whether another op's ladder (at most ladderSpans spans) could
// overflow the store.
func (t *tracer) full() bool {
	const ladderSpans = 1024
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)+ladderSpans > cap(t.spans)
}

// add records a finished span and returns its ID. A span that does not fit is
// dropped (callers gate on full, so this is a backstop, not a code path).
func (t *tracer) add(name string, parent, op int32, start, end time.Time, count int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		return noSpan
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Op: op,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Count: int32(count),
	})
	return id
}

// timed runs fn as one span.
func (t *tracer) timed(name string, parent, op int32, count int, fn func()) int32 {
	start := time.Now()
	fn()
	return t.add(name, parent, op, start, time.Now(), count)
}

// selfTimes returns, per span, its duration minus the time its children
// cover, and the overshoot where the children cover more than the span
// lasted. Children are replays, so their intervals lie after the parent's,
// not inside it: what counts is how long they ran, with overlapping children
// (concurrent replays) merged so no instant is subtracted twice. Self time
// clamps at zero; the overshoot is what trace.residual_pct adds up.
func selfTimes(spans []span) (self, overshoot []int64) {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self, overshoot = make([]int64, len(spans)), make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b int32) int { return int(spans[a].Start - spans[b].Start) })
		var covered, end int64
		for k, id := range kids {
			c := spans[id]
			switch {
			case k == 0 || c.Start >= end:
				covered += c.dur()
				end = c.End
			case c.End > end:
				covered += c.End - end
				end = c.End
			}
		}
		self[i] = max(0, s.dur()-covered)
		overshoot[i] = max(0, covered-s.dur())
	}
	return self, overshoot
}

// traceView indexes a finished trace for the per-layer reductions.
type traceView struct {
	spans           []span
	self, overshoot []int64
}

func (t *tracer) view() traceView {
	v := traceView{spans: t.spans}
	v.self, v.overshoot = selfTimes(t.spans)
	return v
}

// medianUS is the median duration of the named spans in microseconds; 0 when
// the workload never enters the layer.
func (v traceView) medianUS(name string) float64 {
	var xs []float64
	for _, s := range v.spans {
		if s.Name == name {
			xs = append(xs, float64(s.dur())/1e3)
		}
	}
	return median(xs)
}

// medianPerItemUS is the median over ops of the named spans' total time
// divided by the items they cover (a stand-alone span is its own group): the
// cost of one tree, one state.
func (v traceView) medianPerItemUS(name string) float64 {
	type group struct {
		ns    int64
		items int32
	}
	groups := make(map[int32]*group)
	for _, s := range v.spans {
		if s.Name != name {
			continue
		}
		key := s.Op
		if key < 0 {
			key = -1 - s.ID
		}
		g := groups[key]
		if g == nil {
			g = new(group)
			groups[key] = g
		}
		g.ns += s.dur()
		g.items += s.Count
	}
	var xs []float64
	for _, g := range groups {
		if g.items > 0 {
			xs = append(xs, float64(g.ns)/1e3/float64(g.items))
		}
	}
	return median(xs)
}

// medianDiffUS is the per-op median of (whole − part) for ops that recorded
// both: the part of one layer's time that the layer below does not explain.
func (v traceView) medianDiffUS(whole, part string) float64 {
	w, p := v.perOp(whole), v.perOp(part)
	var xs []float64
	for op, d := range w {
		if q, ok := p[op]; ok {
			xs = append(xs, float64(d-q)/1e3)
		}
	}
	return median(xs)
}

// perOp sums the named spans' durations per op.
func (v traceView) perOp(name string) map[int32]int64 {
	out := make(map[int32]int64)
	for _, s := range v.spans {
		if s.Name == name && s.Op >= 0 {
			out[s.Op] += s.dur()
		}
	}
	return out
}

// rootDurations lists the root span duration of every op.
func (v traceView) rootDurations() []time.Duration {
	var out []time.Duration
	for _, s := range v.spans {
		if s.Parent == noSpan && s.Op >= 0 {
			out = append(out, time.Duration(s.dur()))
		}
	}
	return out
}

// residualPct is how far the ladders are from adding up. Self times
// telescope: summed over an op's ladder they give back the op's own duration
// exactly, unless somewhere the replays of a span's children ran longer than
// the span itself did. The residual is that excess, summed over every ladder,
// as a share of the ops' total time: 0 when every layer's replay fits inside
// the layer above it. (It cannot see the opposite error — a replay that runs
// faster than the nested call it stands for inflates its parent's self time.)
func (v traceView) residualPct() float64 {
	var ops, excess int64
	for i, s := range v.spans {
		if s.Op < 0 {
			continue
		}
		if s.Parent == noSpan {
			ops += s.dur()
		}
		excess += v.overshoot[i]
	}
	if ops == 0 {
		return 0
	}
	return 100 * float64(excess) / float64(ops)
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload   string     `json:"workload"`
	Provenance provenance `json:"provenance"`
	Spans      []span     `json:"spans"`
}

func (t *tracer) write(dir, workload string, prov provenance) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(traceFile{Workload: workload, Provenance: prov, Spans: t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
