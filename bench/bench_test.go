package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	const arcs = 150
	_, a := routeBodies(7, arcs)
	_, b := routeBodies(7, arcs)
	_, c := routeBodies(8, arcs)
	if !reflect.DeepEqual(a, b) {
		t.Error("route bodies differ between two generations from one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("route bodies are the same for seeds 7 and 8")
	}
	_, a = whatIfBodies(7, arcs)
	_, b = whatIfBodies(7, arcs)
	_, c = whatIfBodies(8, arcs)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("whatif bodies: want equal for one seed, different for two")
	}

	inst, err := hierSpec(7).Build()
	if err != nil {
		t.Fatal(err)
	}
	tlA, err := churnTimelines(inst.G, 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	tlB, _ := churnTimelines(inst.G, 7, 30)
	tlC, _ := churnTimelines(inst.G, 8, 30)
	if !reflect.DeepEqual(tlA, tlB) {
		t.Error("churn timelines differ between two generations from one seed")
	}
	if reflect.DeepEqual(tlA[0], tlC[0]) {
		t.Error("churn timelines are the same for seeds 7 and 8")
	}
	if len(tlA[0].Events) == 0 {
		t.Error("churn timeline is empty")
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]time.Duration, 1000)
	for i := range xs {
		xs[i] = time.Duration(i + 1)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (ten samples beyond)", got)
	}
	if got := quantile([]time.Duration{}, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
	if got := quantile(xs[:1], 0.99); got != 1 {
		t.Errorf("p99 of one sample = %d, want that sample", got)
	}
	// The tail quantile keeps minTailSamples samples beyond it, never rises
	// above p99 and never falls below the median.
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {10, 0.5}, {20, 0.5}, {100, 0.9}, {500, 0.98}, {1000, 0.99}, {100000, 0.99}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	small := xs[:100]
	if beyond := len(small) - slices.Index(small, quantile(small, tailQuantile(len(small)))) - 1; beyond != minTailSamples {
		t.Errorf("%d samples beyond the tail quantile of 100, want %d", beyond, minTailSamples)
	}
}

func TestReduceWindowsTakesTheMedianSlice(t *testing.T) {
	flat := func(d time.Duration, n int) []time.Duration { return slices.Repeat([]time.Duration{d}, n) }
	st := reduceWindows([]window{
		{lat: flat(2*time.Millisecond, 100), span: time.Second},
		{lat: flat(50*time.Millisecond, 10), span: time.Second}, // a stalled slice
		{lat: flat(2*time.Millisecond, 110), span: time.Second},
		{}, // an empty slice is skipped, not counted as zero
	})
	if st.p50 != 2*time.Millisecond || st.opsPerS != 100 {
		t.Errorf("got p50 %v rate %v; the stalled slice must not move the medians (2ms, 100/s)", st.p50, st.opsPerS)
	}
	// 220 samples are too few to cut for the tail: it is taken over all of
	// them, at the quantile that leaves ten beyond — here the stalled slice's.
	if want := tailQuantile(220); st.samples != 220 || st.tailQ != want || st.p99 != 2*time.Millisecond {
		t.Errorf("samples %d tailQ %v tail %v, want 220, %v and 2ms", st.samples, st.tailQ, st.p99, want)
	}

	// With enough samples the tail is the median chunk's p99.
	big := make([]window, windows)
	for i := range big {
		big[i] = window{lat: flat(time.Millisecond, 1000), span: time.Second}
		big[i].lat[0] = time.Second // 1 in 1000: beyond p99
	}
	big[1].lat = flat(time.Second, 1000) // one slice all stalled
	if st := reduceWindows(big); st.tailQ != 0.99 || st.p99 != time.Millisecond {
		t.Errorf("tailQ %v tail %v, want 0.99 and 1ms", st.tailQ, st.p99)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(id, parent int32, start, end int64) span {
		return span{Name: "s", ID: id, Parent: parent, Op: 0, Start: start, End: end}
	}
	spans := []span{
		at(0, noSpan, 0, 100), // root
		at(1, 0, 100, 130),    // replay of the root's input: lies after it
		at(2, 0, 120, 150),    // overlaps span 1 by 10
		at(3, 0, 200, 210),    // disjoint
		at(4, 1, 300, 310),    // nested: a child of a child
		at(5, 1, 310, 340),    // outruns its parent with span 4: clamps at 0
		at(6, noSpan, 0, 40),  // a root without children
	}
	want := []int64{
		100 - (30 + 20 + 10), // overlap subtracted once
		0,
		30, 10, 10, 30, 40,
	}
	self, overshoot := selfTimes(spans)
	if !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if wantOver := []int64{0, 10, 0, 0, 0, 0, 0}; !slices.Equal(overshoot, wantOver) {
		t.Errorf("overshoot %v, want %v", overshoot, wantOver)
	}
}

func TestResidualIsTheReplaysExcess(t *testing.T) {
	tr := &tracer{epoch: time.Unix(0, 0), spans: make([]span, 0, 16)}
	ns := func(n int64) time.Time { return tr.epoch.Add(time.Duration(n)) }
	for op := int32(0); op < 3; op++ {
		root := tr.add("op.kind"+string('a'+rune(op)), noSpan, op, ns(0), ns(100), 1)
		mid := tr.add("layer.mid", root, op, ns(100), ns(160), 1)
		tr.add("layer.low", mid, op, ns(160), ns(200), 1)
	}
	tr.add("reference", noSpan, -1, ns(0), ns(1000), 1) // stand-alone: in no ladder
	if got := tr.view().residualPct(); got != 0 {
		t.Errorf("residual %v%%, want 0: 40 + 20 + 40 is the whole op", got)
	}
	// One more op whose lower replay outran the layer above it by 30.
	root := tr.add("op.kindd", noSpan, 3, ns(0), ns(100), 1)
	mid := tr.add("layer.mid", root, 3, ns(100), ns(160), 1)
	tr.add("layer.low", mid, 3, ns(160), ns(250), 1)
	if got, want := tr.view().residualPct(), 100*30.0/400; got != want {
		t.Errorf("residual %v%%, want %v%%", got, want)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and holds the
// printed report to BENCHMARK.json: no failed ops, and every metric the file
// names printed exactly once with its unit.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	clients, err := machineShape()
	if err != nil {
		t.Fatal(err)
	}
	small := fullSizes()
	small.str.Iterations, small.dtr.N, small.dtr.K = 4, 8, 4
	small.churnHorizon = 10
	cfg := config{
		seed: 3, dur: 200 * time.Millisecond, clients: clients, setups: 1,
		outDir: t.TempDir(), prov: newProvenance(3, clients), sizes: small,
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, bf.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			c := cfg
			c.traced = traced
			start := time.Now()
			o, err := w.run(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			t.Logf("%s traced=%v: %v", w.name, traced, time.Since(start).Round(time.Millisecond))
			if o.failed != 0 || o.err != nil || o.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, o.attempted, o.failed, o.err)
			}
			var out bytes.Buffer
			if err := report(&out, w, c, o); err != nil {
				t.Fatal(err)
			}
			want := make(map[string]string) // metric → unit
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			checkReport(t, w.name, out.String(), want, !traced)
		}
	}
}

// checkReport parses one printed run: metric lines are "name value unit",
// the last line is the result object.
func checkReport(t *testing.T, name, text string, want map[string]string, nonZero bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	printed := make(map[string]int)
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) == 3 && want[f[0]] != "" {
			printed[f[0]]++
			if f[2] != want[f[0]] {
				t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", name, f[0], f[2], want[f[0]])
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: result %+v", name, res)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: result carries %d metrics, BENCHMARK.json lists %d", name, len(res.Metrics), len(want))
	}
	for metric, unit := range want {
		if printed[metric] != 1 {
			t.Errorf("%s: %s printed %d times, want once", name, metric, printed[metric])
		}
		got, ok := res.Metrics[metric]
		switch {
		case !ok:
			t.Errorf("%s: result lacks %s", name, metric)
		case got.Unit != unit:
			t.Errorf("%s: result has %s in %q, want %q", name, metric, got.Unit, unit)
		case nonZero && got.Value <= 0:
			t.Errorf("%s: %s = %v; an end-to-end metric is never 0", name, metric, got.Value)
		}
	}
}
