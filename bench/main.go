// Command bench is the repository's end-to-end benchmark: five workloads
// driven through the entry points users hit — dtrd over a loopback socket,
// the engine.Session → search.STR → search.DTRFrom pipeline dtropt and dtrd
// share, churn.Replayer — each generated from a seed, checked against an
// independent evaluation, and reported as the end-to-end metrics of
// BENCHMARK.json or, with -trace 1, as per-layer metrics from spans the
// benchmark records around calls into each layer's public API.
//
// Usage:
//
//	go run ./bench                                   every workload, untraced then traced
//	go run ./bench -workload route-small -seed 7 -seconds 20 -trace 0
//	go run ./bench -aa                               every workload twice; fail outside the bounds
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"dualtopo/internal/obs"
	"dualtopo/internal/search"
)

// Machine shape is pinned, not derived: a result must not change shape with
// the box it ran on. Serving workloads run maxClients closed-loop clients
// against a pool of the same size (one of each on a single-CPU machine);
// search and churn run on one goroutine.
const (
	maxClients    = 2
	searchWorkers = 1
	routeWorkers  = 1
	// setupRepeats is how many times a run sets the workload up, at least;
	// setup_s is the median.
	setupRepeats = 3
)

type metricDef struct{ name, unit string }

// endToEnd lists what a user of the system sees; BENCHMARK.json carries the
// same names with their directions and bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the traced run's metrics, layer = package name. A workload
// that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	{"http.roundtrip_us", "us"}, {"http.overhead_us", "us"},
	{"dtrd.handler_us", "us"}, {"dtrd.decode_us", "us"}, {"dtrd.encode_us", "us"},
	{"dtrd.req_bytes", "B"}, {"dtrd.resp_bytes", "B"},
	{"dtrd.allocs_per_req", "count"}, {"dtrd.alloc_bytes_per_req", "B"},
	{"engine.load_ms", "ms"}, {"engine.session_new_ms", "ms"}, {"engine.lease_us", "us"},
	{"engine.reset_us", "us"}, {"engine.session_mb", "MB"}, {"engine.lease_timeouts", "count"},
	{"eval.evaluate_us", "us"}, {"eval.score_us", "us"}, {"eval.delta_h_us", "us"},
	{"eval.delta_l_us", "us"}, {"eval.delta_str_us", "us"}, {"eval.full_l_us", "us"},
	{"eval.attribute_us", "us"},
	{"spf.tree_us", "us"}, {"spf.addloads_us", "us"}, {"spf.route_us", "us"},
	{"spf.trees_per_op", "count"}, {"spf.apply_step_us", "us"}, {"spf.apply_fail_us", "us"},
	{"spf.apply_repair_us", "us"}, {"spf.cp_revert_us", "us"},
	{"spf.dirty_trees_per_apply", "count"}, {"spf.tree_reuse_ratio", "ratio"},
	{"spf.partial_share", "ratio"}, {"spf.heap_fallback_share", "ratio"},
	{"resilience.enumerate_us", "us"}, {"resilience.sweep_us", "us"},
	{"resilience.state_us", "us"}, {"resilience.states_per_op", "count"},
	{"search.str_s", "s"}, {"search.dtr_s", "s"}, {"search.evals_per_step", "count"},
	{"search.delta_eval_share", "ratio"}, {"search.accept_ratio", "ratio"},
	{"search.pruned_share", "ratio"}, {"search.phi_l_dtr", "cost"}, {"search.rl_ratio", "ratio"},
	{"churn.start_ms", "ms"}, {"churn.step_link_down_us", "us"}, {"churn.step_link_up_us", "us"},
	{"churn.step_weight_us", "us"}, {"churn.step_node_us", "us"},
	{"churn.moved_arcs_per_event", "count"}, {"churn.conv_step_us", "us"},
	{"scenario.build_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.residual_pct", "%"},
}

// spanMetrics fills every span-derived per-layer metric from a finished
// trace. Span names are the metric names without the unit suffix.
func spanMetrics(v traceView, m map[string]float64) {
	for _, name := range []string{
		"http.roundtrip", "dtrd.handler", "dtrd.decode", "dtrd.encode",
		"engine.lease", "engine.reset",
		"eval.evaluate", "eval.delta_h", "eval.delta_l", "eval.delta_str", "eval.full_l", "eval.attribute",
		"spf.route", "spf.apply_step",
		"resilience.enumerate", "resilience.sweep",
		"churn.step_link_down", "churn.step_link_up", "churn.step_weight", "churn.step_node", "churn.conv_step",
	} {
		m[name+"_us"] = v.medianUS(name)
	}
	for _, name := range []string{"engine.load", "engine.session_new", "churn.start", "scenario.build"} {
		m[name+"_ms"] = v.medianUS(name) / 1e3
	}
	for _, name := range []string{"search.str", "search.dtr"} {
		m[name+"_s"] = v.medianUS(name) / 1e6
	}
	for _, name := range []string{"spf.tree", "spf.addloads", "spf.apply_fail", "spf.apply_repair", "spf.cp_revert"} {
		m[name+"_us"] = v.medianPerItemUS(name)
	}
	m["resilience.state_us"] = v.medianPerItemUS("resilience.sweep")
	m["http.overhead_us"] = v.medianDiffUS("http.roundtrip", "dtrd.handler")
	m["eval.score_us"] = v.medianDiffUS("eval.evaluate", "spf.route")
	m["trace.residual_pct"] = v.residualPct()
}

// workload is one set of inputs the benchmark runs; BENCHMARK.json and
// bench/README.md record why each exists.
type workload struct {
	name string
	run  func(config) (*outcome, error)
}

var workloads = []workload{
	{"route-small", func(c config) (*outcome, error) { return runServing(c, "route-small") }},
	{"route-large", func(c config) (*outcome, error) { return runServing(c, "route-large") }},
	{"whatif-sweep", func(c config) (*outcome, error) { return runServing(c, "whatif-sweep") }},
	{"search-hier", runSearch},
	{"churn-replay", runChurn},
}

// config is one run's shape.
type config struct {
	seed    uint64
	dur     time.Duration
	traced  bool
	clients int
	setups  int
	outDir  string
	prov    provenance
	sizes   sizes
}

// sizes is how much work a search pipeline and a churn pass are. The
// benchmark always runs fullSizes; only the package's smoke test shrinks them.
type sizes struct {
	str          search.STRParams
	dtr          search.Params
	churnHorizon float64 // seconds of simulated churn per pass
}

func fullSizes() sizes {
	str, dtr := searchBudgets()
	return sizes{str: str, dtr: dtr, churnHorizon: 130}
}

// outcome is what one run of one workload produced.
type outcome struct {
	attempted, failed int
	err               error // first failed op or answer check; nil when all passed
	samples           int
	tailQ             float64 // quantile lat_p99_ms holds; below 0.99 only on runs too short for p99
	metrics           map[string]float64
	traceFile         string
}

// setUpRepeatedly sets a workload up at least n times, tearing the previous
// one down first, and returns each set-up's duration; the last one is left
// standing for the measured phase. A set-up of a few milliseconds is repeated
// further — until the set-ups add up to setupBudget, at most 5n times — since
// the median of three such timings still moves by half from run to run.
func setUpRepeatedly(n int, setUp func() (time.Duration, error), tearDown func()) ([]time.Duration, error) {
	const setupBudget = 300 * time.Millisecond
	durs := make([]time.Duration, 0, 5*n)
	var total time.Duration
	for len(durs) < n || (total < setupBudget && len(durs) < 5*n) {
		tearDown()
		d, err := setUp()
		if err != nil {
			return nil, err
		}
		durs = append(durs, d)
		total += d
	}
	return durs, nil
}

// endToEndOutcome reduces an untraced run. heap_live_mb is read here, after
// the latency samples are reduced and released, with everything the workload
// keeps warm still referenced by its caller.
func endToEndOutcome(setups []time.Duration, res loopResult) *outcome {
	st := reduceWindows(res.windows)
	res.windows = nil
	return &outcome{
		attempted: res.attempted, failed: res.failed, err: res.firstErr,
		samples: st.samples, tailQ: st.tailQ,
		metrics: map[string]float64{
			"setup_s":      median(setups).Seconds(),
			"lat_p50_ms":   ms(st.p50),
			"lat_p99_ms":   ms(st.p99),
			"ops_per_s":    st.opsPerS,
			"heap_live_mb": heapLiveMB(),
		},
	}
}

// provenance is what a result needs to stay attributable.
type provenance struct {
	*obs.Manifest
	NumCPU       int    `json:"nproc"`
	Revision     string `json:"vcs_revision"`
	Clients      int    `json:"clients"`
	PoolSize     int    `json:"pool_size"`
	Workers      int    `json:"search_workers"`
	RouteWorkers int    `json:"route_workers"`
}

func newProvenance(seed uint64, clients int) provenance {
	m := obs.NewManifest("bench", os.Args[1:])
	m.SetSeed(seed)
	rev := m.GitSHA
	if rev == "" { // go run does not stamp binaries
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		} else {
			rev = "unknown"
		}
	}
	return provenance{Manifest: m, NumCPU: runtime.NumCPU(), Revision: rev,
		Clients: clients, PoolSize: clients, Workers: searchWorkers, RouteWorkers: routeWorkers}
}

func (p provenance) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s seed=%d rev=%s clients=%d pool_size=%d workers=%d route_workers=%d",
		p.NumCPU, p.GOMAXPROCS, p.GoVersion, *p.Seed, p.Revision, p.Clients, p.PoolSize, p.Workers, p.RouteWorkers)
}

// machineShape returns the client count, or an error when the runtime has
// fewer Ps than clients (the closed loop would then measure the scheduler).
func machineShape() (int, error) {
	clients := maxClients
	if runtime.NumCPU() == 1 {
		clients = 1
	}
	if p := runtime.GOMAXPROCS(0); p < clients {
		return 0, fmt.Errorf("bench: GOMAXPROCS=%d is below the %d closed-loop clients the serving workloads pin; raise GOMAXPROCS", p, clients)
	}
	return clients, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) result(defs []metricDef) result {
	r := result{Correct: o.err == nil && o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{o.metrics[d.name], d.unit}
	}
	return r
}

// report prints one run: a header, one line per metric, and the result line.
func report(out io.Writer, w workload, cfg config, o *outcome) error {
	defs, kind := endToEnd, "end-to-end"
	if cfg.traced {
		defs, kind = perLayer, "per-layer (traced)"
	}
	fmt.Fprintf(out, "== %s: %s, %s measured\n", w.name, kind, cfg.dur)
	fmt.Fprintf(out, "   ops attempted %d, failed %d, latency samples %d", o.attempted, o.failed, o.samples)
	if !cfg.traced && o.tailQ < 0.99 {
		fmt.Fprintf(out, " (too few for p99: lat_p99_ms holds p%.1f)", 100*o.tailQ)
	}
	fmt.Fprintln(out)
	if o.err != nil {
		fmt.Fprintf(out, "   FAILED: %v\n", o.err)
	}
	if o.traceFile != "" {
		fmt.Fprintf(out, "   trace: %s\n", o.traceFile)
	}
	for _, d := range defs {
		fmt.Fprintf(out, "   %-28s %14.4f %s\n", d.name, o.metrics[d.name], d.unit)
	}
	line, err := json.Marshal(o.result(defs))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all): "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "every input is generated from this seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", -1, "0: untraced end-to-end run; 1: traced per-layer run; default both")
		aa      = flag.Bool("aa", false, "run every workload twice untraced and fail if any end-to-end metric differs by more than its bound in BENCHMARK.json")
		outDir  = flag.String("out", "bench/out", "directory for trace files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *aa, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(name string, seed uint64, seconds float64, trace int, aa bool, outDir string) error {
	clients, err := machineShape()
	if err != nil {
		return err
	}
	if flag.NArg() > 0 || seconds <= 0 || trace < -1 || trace > 1 {
		return errors.New("bench: usage: go run ./bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa]")
	}
	selected := workloads
	if name != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
		if i < 0 {
			return fmt.Errorf("bench: unknown workload %q (%s)", name, strings.Join(workloadNames(), ", "))
		}
		selected = workloads[i : i+1]
	}
	cfg := config{
		seed: seed, dur: time.Duration(seconds * float64(time.Second)),
		clients: clients, setups: setupRepeats, outDir: outDir,
		prov: newProvenance(seed, clients), sizes: fullSizes(),
	}
	fmt.Println("bench:", cfg.prov)
	if aa {
		return runAA(selected, cfg)
	}
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			if trace >= 0 && traced != (trace == 1) {
				continue
			}
			c := cfg
			c.traced = traced
			o, err := w.run(c)
			if err != nil {
				return fmt.Errorf("bench: %s: %w", w.name, err)
			}
			if err := report(os.Stdout, w, c, o); err != nil {
				return err
			}
		}
	}
	return nil
}
