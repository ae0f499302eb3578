// Package obs is the dependency-free telemetry core: atomic counters,
// gauges and fixed-bucket histograms whose hot-path updates are
// allocation-free, grouped into labeled families inside a Registry that can
// expose itself in Prometheus text format or as a JSON snapshot.
//
// The design splits metric *resolution* (naming a family, resolving a label
// set to a child — which may allocate, and is done once at setup) from
// metric *updates* (Inc/Add/Observe on the resolved handle — a handful of
// atomic operations, never an allocation). That split is what lets
// instrumentation live inside the zero-alloc SPF/delta hot paths without
// breaking their AllocsPerRun pins.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1. Allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be >= 0 for the Prometheus contract; obs does not
// enforce it). Allocation-free.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as a float64. The zero
// value is usable.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Allocation-free.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d. Allocation-free.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — running-max
// tracking (e.g. worst failure-state cost seen). Allocation-free.
func (g *Gauge) SetMax(v float64) {
	if math.IsNaN(v) {
		return // a running max ignores undefined observations
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// SetMin lowers the gauge to v if v is below the current value — running-min
// tracking (e.g. best portfolio objective seen). The zero value of a Gauge
// is 0, which SetMin never raises; callers tracking a minimum of positive
// observations should Set an identity (+Inf) before the first SetMin.
// Allocation-free.
func (g *Gauge) SetMin(v float64) {
	if math.IsNaN(v) {
		return // a running min ignores undefined observations
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are cumulative
// upper bounds in the Prometheus style; an implicit +Inf bucket catches the
// rest. Observe is allocation-free; the buckets are fixed at construction.
type Histogram struct {
	bounds []float64      // ascending upper bounds, len k
	counts []atomic.Int64 // len k+1; counts[k] is the +Inf overflow
	count  atomic.Int64
	sum    Gauge // atomic float64 accumulator
}

// newHistogram builds a histogram over the given ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records v. Allocation-free: a binary search over the fixed bounds
// plus three atomic updates.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts,
// attributing each bucket's mass to its upper bound (+Inf maps to the
// largest finite bound). Coarse by construction; meant for snapshots and
// summaries, not for precision statistics.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	if len(h.bounds) == 0 {
		return math.Inf(1)
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n ascending bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefBuckets are general-purpose latency buckets in seconds, 100µs to ~100s.
var DefBuckets = ExpBuckets(1e-4, math.Sqrt(10), 13)

// metric kinds, also the Prometheus TYPE strings.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric with a fixed label-name set and one child per
// distinct label-value tuple.
type family struct {
	name   string
	help   string
	typ    string
	labels []string // label names; empty for unlabeled metrics

	bounds []float64 // histogram families only

	mu       sync.Mutex
	children []*child
	byKey    map[string]*child
}

// child is one (labelValues -> metric) binding inside a family.
type child struct {
	values []string
	metric any // *Counter | *Gauge | *Histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry package-level helpers and the
// built-in instrumentation register into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// family resolves or creates a family, enforcing name/type/label agreement.
func (r *Registry) family(name, help, typ string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		byKey:  make(map[string]*child),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// resolve returns the child for the given label values, creating it with
// mk on first use. Resolution may allocate; updates on the returned metric
// never do.
func (f *family) resolve(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q: %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.byKey[key]; ok {
		return c.metric
	}
	c := &child{values: append([]string(nil), values...), metric: mk()}
	f.children = append(f.children, c)
	f.byKey[key] = c
	return c.metric
}

// labelKey joins values with an unprintable separator.
func labelKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	k := values[0]
	for _, v := range values[1:] {
		k += "\x00" + v
	}
	return k
}

// Counter returns the unlabeled counter name, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, nil, nil)
	return f.resolve(nil, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the unlabeled gauge name, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, typeGauge, nil, nil)
	return f.resolve(nil, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the unlabeled histogram name with the given upper
// bounds, registering it on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, typeHistogram, nil, bounds)
	return f.resolve(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or resolves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, typeCounter, labels, nil)}
}

// With resolves one label-value tuple to its counter. Cache the handle;
// resolution may allocate, updates do not.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.resolve(values, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or resolves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, typeGauge, labels, nil)}
}

// With resolves one label-value tuple to its gauge.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.resolve(values, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a labeled histogram family; every child shares the
// family's bucket bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers (or resolves) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, typeHistogram, labels, bounds)}
}

// With resolves one label-value tuple to its histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.resolve(values, func() any { return newHistogram(f.bounds) }).(*Histogram)
}
