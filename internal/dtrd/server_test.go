package dtrd

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/obs"
	"dualtopo/internal/resilience"
	"dualtopo/internal/search"
	"dualtopo/internal/spf"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// testServer boots a fresh daemon on an isolated registry; every test gets
// its own so IDs (t1, j1, ...) are deterministic.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// do issues one request and returns (status, body).
func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// golden asserts got matches testdata/<name>, rewriting it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test ./internal/dtrd -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n got: %s\nwant: %s", name, got, want)
	}
}

// marshalReq fixes the request wire format and pins it as a fixture too, so
// the testdata directory documents both sides of each exchange.
func marshalReq(t *testing.T, name string, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	golden(t, name, data)
	return data
}

// testLoad is the instance every API test loads: 12 nodes, 30 links, 60
// arcs, seeded.
func testLoad() LoadRequest {
	return LoadRequest{
		Name:       "golden",
		Topology:   "random",
		Nodes:      12,
		Links:      30,
		TargetUtil: 0.6,
		Seed:       5,
	}
}

func testSpec() instance.Spec {
	return instance.Spec{
		Topology:   "random",
		Nodes:      12,
		Links:      30,
		TargetUtil: 0.6,
		Seed:       5,
	}
}

// perturb derives the q-th deterministic weight setting for n arcs.
func perturb(n, q int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1 + (i*7+q*13)%9
	}
	return w
}

// loadTestTopo loads the standard instance and returns its arc count.
func loadTestTopo(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	body, err := json.Marshal(testLoad())
	if err != nil {
		t.Fatal(err)
	}
	code, resp := do(t, "POST", ts.URL+"/v1/topologies", body)
	if code != http.StatusCreated {
		t.Fatalf("load: code %d: %s", code, resp)
	}
	var info TopologyInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		t.Fatal(err)
	}
	return info.Arcs
}

func TestGoldenTopologyLifecycle(t *testing.T) {
	// The fixtures echo pool_size, whose server default is GOMAXPROCS: pin it
	// so they hold on any machine shape.
	_, ts := testServer(t, Config{PoolSize: 1})

	// POST /v1/topologies
	req := marshalReq(t, "load_request.json", testLoad())
	code, body := do(t, "POST", ts.URL+"/v1/topologies", req)
	if code != http.StatusCreated {
		t.Fatalf("load code %d: %s", code, body)
	}
	golden(t, "load_response.json", body)

	// POST with an invalid objective — error shape
	bad := marshalReq(t, "load_bad_request.json", LoadRequest{Objective: "fastest"})
	code, body = do(t, "POST", ts.URL+"/v1/topologies", bad)
	if code != http.StatusBadRequest {
		t.Fatalf("bad load code %d: %s", code, body)
	}
	golden(t, "load_bad_response.json", body)

	// POST a size over the load caps — 422, refused before any build
	huge := marshalReq(t, "load_too_large_request.json", LoadRequest{Topology: "random", Nodes: 2000000000})
	code, body = do(t, "POST", ts.URL+"/v1/topologies", huge)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized load code %d: %s", code, body)
	}
	golden(t, "load_too_large_response.json", body)

	// GET /v1/topologies
	code, body = do(t, "GET", ts.URL+"/v1/topologies", nil)
	if code != http.StatusOK {
		t.Fatalf("list code %d: %s", code, body)
	}
	golden(t, "list_response.json", body)

	// GET /v1/topologies/t1
	code, body = do(t, "GET", ts.URL+"/v1/topologies/t1", nil)
	if code != http.StatusOK {
		t.Fatalf("get code %d: %s", code, body)
	}
	golden(t, "get_response.json", body)

	// GET unknown — error shape
	code, body = do(t, "GET", ts.URL+"/v1/topologies/t99", nil)
	if code != http.StatusNotFound {
		t.Fatalf("get unknown code %d: %s", code, body)
	}
	golden(t, "get_missing_response.json", body)

	// DELETE /v1/topologies/t1
	code, body = do(t, "DELETE", ts.URL+"/v1/topologies/t1", nil)
	if code != http.StatusNoContent {
		t.Fatalf("delete code %d: %s", code, body)
	}
	if len(body) != 0 {
		t.Fatalf("delete body = %q, want empty", body)
	}
	// ...and it is gone.
	code, _ = do(t, "GET", ts.URL+"/v1/topologies/t1", nil)
	if code != http.StatusNotFound {
		t.Fatalf("get after delete code %d", code)
	}
}

func TestGoldenRoute(t *testing.T) {
	_, ts := testServer(t, Config{})
	arcs := loadTestTopo(t, ts)

	// STR
	req := marshalReq(t, "route_str_request.json", RouteRequest{Weights: perturb(arcs, 3)})
	code, body := do(t, "POST", ts.URL+"/v1/topologies/t1/route", req)
	if code != http.StatusOK {
		t.Fatalf("route str code %d: %s", code, body)
	}
	golden(t, "route_str_response.json", body)

	// DTR
	req = marshalReq(t, "route_dtr_request.json", RouteRequest{
		WeightsHigh: perturb(arcs, 5), WeightsLow: perturb(arcs, 8),
	})
	code, body = do(t, "POST", ts.URL+"/v1/topologies/t1/route", req)
	if code != http.StatusOK {
		t.Fatalf("route dtr code %d: %s", code, body)
	}
	golden(t, "route_dtr_response.json", body)

	// Wrong weight count — error shape
	req = marshalReq(t, "route_bad_request.json", RouteRequest{Weights: []int{1, 2, 3}})
	code, body = do(t, "POST", ts.URL+"/v1/topologies/t1/route", req)
	if code != http.StatusBadRequest {
		t.Fatalf("route bad code %d: %s", code, body)
	}
	golden(t, "route_bad_response.json", body)

	// No weights at all — error shape
	code, body = do(t, "POST", ts.URL+"/v1/topologies/t1/route", []byte("{}"))
	if code != http.StatusBadRequest {
		t.Fatalf("route empty code %d: %s", code, body)
	}
	golden(t, "route_empty_response.json", body)
}

func TestGoldenWhatIf(t *testing.T) {
	_, ts := testServer(t, Config{})
	arcs := loadTestTopo(t, ts)

	// STR sweep over every single-link failure
	req := marshalReq(t, "whatif_str_request.json", WhatIfRequest{Weights: perturb(arcs, 3)})
	code, body := do(t, "POST", ts.URL+"/v1/topologies/t1/whatif", req)
	if code != http.StatusOK {
		t.Fatalf("whatif str code %d: %s", code, body)
	}
	golden(t, "whatif_str_response.json", body)

	// STR-vs-DTR comparison on a seeded sample
	req = marshalReq(t, "whatif_compare_request.json", WhatIfRequest{
		Weights:     perturb(arcs, 3),
		WeightsHigh: perturb(arcs, 5),
		WeightsLow:  perturb(arcs, 8),
		Failures:    &FailureModel{Kind: "link", Sample: 6, Seed: 42},
	})
	code, body = do(t, "POST", ts.URL+"/v1/topologies/t1/whatif", req)
	if code != http.StatusOK {
		t.Fatalf("whatif compare code %d: %s", code, body)
	}
	golden(t, "whatif_compare_response.json", body)

	// Invalid failure model — error shape
	req = marshalReq(t, "whatif_bad_request.json", WhatIfRequest{
		Weights:  perturb(arcs, 3),
		Failures: &FailureModel{Kind: "meteor"},
	})
	code, body = do(t, "POST", ts.URL+"/v1/topologies/t1/whatif", req)
	if code != http.StatusBadRequest {
		t.Fatalf("whatif bad code %d: %s", code, body)
	}
	golden(t, "whatif_bad_response.json", body)
}

// TestGoldenWhatIfLimit pins how maxWhatIfStates bounds the states a what-if
// sweeps, not the family it samples from: 363 links have 65 703 link pairs,
// so a 4-state sample of them is answered and the whole family is refused
// with 422 limit_exceeded before any state is built. The requests are stored
// compact: each carries 726 weights.
func TestGoldenWhatIfLimit(t *testing.T) {
	_, ts := testServer(t, Config{})
	load, err := json.Marshal(LoadRequest{Topology: "random", Nodes: 150, Links: 363, TargetUtil: 0.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	code, body := do(t, "POST", ts.URL+"/v1/topologies", load)
	if code != http.StatusCreated {
		t.Fatalf("load: code %d: %s", code, body)
	}
	for _, c := range []struct {
		name   string
		sample int
		code   int
	}{
		{"whatif_sampled", 4, http.StatusOK},
		{"whatif_too_large", 0, http.StatusUnprocessableEntity},
	} {
		req, err := json.Marshal(WhatIfRequest{
			Weights:  perturb(2*363, 3),
			Failures: &FailureModel{Kind: "link", Count: 2, Sample: c.sample, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		golden(t, c.name+"_request.json", append(req, '\n'))
		code, body = do(t, "POST", ts.URL+"/v1/topologies/t1/whatif", req)
		if code != c.code {
			t.Fatalf("%s: code %d, want %d: %s", c.name, code, c.code, body)
		}
		golden(t, c.name+"_response.json", body)
	}
}

func TestGoldenSearchJob(t *testing.T) {
	_, ts := testServer(t, Config{})
	loadTestTopo(t, ts)

	req := marshalReq(t, "search_request.json", SearchRequest{Budget: "smoke", Seed: 9})
	code, body := do(t, "POST", ts.URL+"/v1/topologies/t1/search", req)
	if code != http.StatusAccepted {
		t.Fatalf("search code %d: %s", code, body)
	}
	golden(t, "search_accepted_response.json", body)

	final := pollJob(t, ts, "j1")
	golden(t, "job_done_response.json", final)

	// GET /v1/jobs lists it.
	code, body = do(t, "GET", ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("jobs code %d: %s", code, body)
	}
	golden(t, "jobs_response.json", body)

	// Unknown job — error shape
	code, body = do(t, "GET", ts.URL+"/v1/jobs/j99", nil)
	if code != http.StatusNotFound {
		t.Fatalf("job unknown code %d: %s", code, body)
	}
	golden(t, "job_missing_response.json", body)

	// Unknown budget — error shape
	code, body = do(t, "POST", ts.URL+"/v1/topologies/t1/search",
		[]byte(`{"budget":"galactic"}`))
	if code != http.StatusBadRequest {
		t.Fatalf("search bad code %d: %s", code, body)
	}
	golden(t, "search_bad_response.json", body)
}

// pollJob waits for the job to leave "running" and returns its final body.
func pollJob(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, body := do(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("job poll code %d: %s", code, body)
		}
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Status != "running" {
			if info.Status != "done" {
				t.Fatalf("job %s failed: %s", id, info.Error)
			}
			return body
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRouteParityWithBatchEvaluator pins the acceptance criterion: an HTTP
// route evaluation is bitwise-identical to the hand-wired evaluator the
// batch CLIs (dtropt) construct for the same instance spec.
func TestRouteParityWithBatchEvaluator(t *testing.T) {
	_, ts := testServer(t, Config{})
	arcs := loadTestTopo(t, ts)

	inst, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
	if err != nil {
		t.Fatal(err)
	}

	w := perturb(arcs, 3)
	want, err := ev.EvaluateSTR(w)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(RouteRequest{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := do(t, "POST", ts.URL+"/v1/topologies/t1/route", body)
	if code != http.StatusOK {
		t.Fatalf("route code %d: %s", code, resp)
	}
	var got RouteResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		t.Fatal(err)
	}
	if !sameFloat(got.PhiH, want.PhiH) || !sameFloat(got.PhiL, want.PhiL) ||
		!sameFloat(got.Lambda, want.Lambda) || got.Violations != want.Violations ||
		!sameFloat(got.AvgUtilization, want.AvgUtilization(inst.G)) ||
		!sameFloat(got.MaxUtilization, want.MaxUtilization(inst.G)) {
		t.Fatalf("HTTP route %+v differs bitwise from batch evaluator", got)
	}
}

// TestWhatIfParityWithBatchSweeper pins the same criterion for what-ifs
// against the dtrfail pipeline: Enumerate + Sweeper + CompareSchemes.
func TestWhatIfParityWithBatchSweeper(t *testing.T) {
	_, ts := testServer(t, Config{})
	arcs := loadTestTopo(t, ts)

	inst, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
	if err != nil {
		t.Fatal(err)
	}
	states, err := resilience.Enumerate(inst.G, resilience.Model{Kind: "link"})
	if err != nil {
		t.Fatal(err)
	}
	sweeper := resilience.NewSweeper(ev, resilience.Options{})
	wSTR, wH, wL := perturb(arcs, 3), perturb(arcs, 5), perturb(arcs, 8)
	want, err := resilience.CompareSchemes(sweeper, wSTR, wH, wL, states)
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(WhatIfRequest{Weights: wSTR, WeightsHigh: wH, WeightsLow: wL})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := do(t, "POST", ts.URL+"/v1/topologies/t1/whatif", body)
	if code != http.StatusOK {
		t.Fatalf("whatif code %d: %s", code, resp)
	}
	var got WhatIfResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		t.Fatal(err)
	}
	if got.Compare == nil {
		t.Fatal("no compare section in response")
	}
	if !sameFloat(got.Compare.BaseSTR, want.BaseSTR) || !sameFloat(got.Compare.BaseDTR, want.BaseDTR) ||
		got.Disconnecting != want.Disconnecting || len(got.Compare.STR) != len(want.STR) {
		t.Fatalf("HTTP compare header differs from batch sweeper")
	}
	for i := range want.STR {
		if got.Compare.Labels[i] != want.Labels[i] ||
			!sameFloat(got.Compare.STR[i], want.STR[i]) ||
			!sameFloat(got.Compare.DTR[i], want.DTR[i]) {
			t.Fatalf("sample %d differs bitwise from batch sweeper", i)
		}
	}
}

// TestSearchParityWithBatchPipeline pins job results against the dtropt
// pipeline run directly: STR (seed) then DTRFrom (seed+1) on the same
// budget.
func TestSearchParityWithBatchPipeline(t *testing.T) {
	_, ts := testServer(t, Config{})
	loadTestTopo(t, ts)

	body, err := json.Marshal(SearchRequest{Budget: "smoke", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := do(t, "POST", ts.URL+"/v1/topologies/t1/search", body)
	if code != http.StatusAccepted {
		t.Fatalf("search code %d: %s", code, resp)
	}
	var info JobInfo
	if err := json.Unmarshal(pollJob(t, ts, "j1"), &info); err != nil {
		t.Fatal(err)
	}

	inst, err := testSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eval.New(inst.G, inst.TH, inst.TL, inst.Opts)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := search.BudgetByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	strParams := budget.STR
	strParams.Seed = 9
	str, err := search.STR(ev, strParams)
	if err != nil {
		t.Fatal(err)
	}
	dtrParams := budget.DTR
	dtrParams.Seed = 10
	dtr, err := search.DTRFrom(ev, str.W, str.W, dtrParams)
	if err != nil {
		t.Fatal(err)
	}

	got := info.Result
	if got == nil {
		t.Fatal("job finished without a result")
	}
	if !equalInts(got.STRWeights, str.W) || !equalInts(got.WH, dtr.WH) || !equalInts(got.WL, dtr.WL) {
		t.Fatal("job weights differ from batch pipeline")
	}
	if !sameFloat(got.STRPhiL, str.Result.PhiL) || !sameFloat(got.DTRPhiL, dtr.Result.PhiL) {
		t.Fatal("job costs differ bitwise from batch pipeline")
	}
}

func equalInts(a []int, b spf.Weights) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentRequestsMatchSequential replays the same query mix
// sequentially and then from 16 goroutines; every response body must be
// byte-identical, proving pooled sessions leak no state across requests.
func TestConcurrentRequestsMatchSequential(t *testing.T) {
	_, ts := testServer(t, Config{PoolSize: 4})
	arcs := loadTestTopo(t, ts)

	const queries = 16
	type query struct {
		path string
		body []byte
	}
	qs := make([]query, queries)
	for i := range qs {
		if i%2 == 0 {
			b, err := json.Marshal(RouteRequest{Weights: perturb(arcs, i)})
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = query{"/v1/topologies/t1/route", b}
		} else {
			b, err := json.Marshal(WhatIfRequest{
				Weights:  perturb(arcs, i),
				Failures: &FailureModel{Kind: "link", Sample: 5, Seed: uint64(i)},
			})
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = query{"/v1/topologies/t1/whatif", b}
		}
	}

	want := make([][]byte, queries)
	for i, q := range qs {
		code, body := do(t, "POST", ts.URL+q.path, q.body)
		if code != http.StatusOK {
			t.Fatalf("sequential %d: code %d: %s", i, code, body)
		}
		want[i] = body
	}

	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q query) {
			defer wg.Done()
			code, body := do(t, "POST", ts.URL+q.path, q.body)
			if code != http.StatusOK {
				t.Errorf("concurrent %d: code %d: %s", i, code, body)
				return
			}
			if !bytes.Equal(body, want[i]) {
				t.Errorf("concurrent %d: body differs from sequential", i)
			}
		}(i, q)
	}
	wg.Wait()
}

// TestGracefulDrain drives the full drain protocol deterministically: with
// the topology's only session held, an in-flight request blocks on the
// lease; Drain() makes new requests 503 while the blocked one completes
// once the session frees; WaitIdle then returns.
func TestGracefulDrain(t *testing.T) {
	srv, ts := testServer(t, Config{})

	body, err := json.Marshal(LoadRequest{
		Topology: "random", Nodes: 12, Links: 30, TargetUtil: 0.6, Seed: 5,
		PoolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := do(t, "POST", ts.URL+"/v1/topologies", body)
	if code != http.StatusCreated {
		t.Fatalf("load code %d: %s", code, resp)
	}
	var info TopologyInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		t.Fatal(err)
	}

	// Hold the topology's only session so the next request must wait.
	srv.mu.Lock()
	h := srv.topos["t1"].handle
	srv.mu.Unlock()
	held, err := h.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	routeBody, err := json.Marshal(RouteRequest{Weights: perturb(info.Arcs, 1)})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		body []byte
	}
	inFlight := make(chan result, 1)
	go func() {
		code, body := do(t, "POST", ts.URL+"/v1/topologies/t1/route", routeBody)
		inFlight <- result{code, body}
	}()

	// Wait until the request is inside the handler (blocked on the lease).
	waitFor(t, func() bool { return srv.met.inflight.Value() == 1 })

	srv.Drain()

	// New API requests are refused with the draining error shape.
	code, resp = do(t, "POST", ts.URL+"/v1/topologies/t1/route", routeBody)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request code %d: %s", code, resp)
	}
	golden(t, "draining_response.json", resp)
	if code, _ := do(t, "GET", ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", code)
	}
	// Telemetry keeps serving during the drain.
	if code, _ := do(t, "GET", ts.URL+"/metrics", nil); code != http.StatusOK {
		t.Fatalf("metrics while draining = %d, want 200", code)
	}

	// Free the session: the in-flight request must now complete normally.
	if err := h.Release(held); err != nil {
		t.Fatal(err)
	}
	r := <-inFlight
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request code %d: %s", r.code, r.body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// TestMetricsSurface loads, routes, and asserts the serving metrics appear
// on /metrics with their TYPE headers.
func TestMetricsSurface(t *testing.T) {
	_, ts := testServer(t, Config{})
	arcs := loadTestTopo(t, ts)
	body, err := json.Marshal(RouteRequest{Weights: perturb(arcs, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if code, resp := do(t, "POST", ts.URL+"/v1/topologies/t1/route", body); code != http.StatusOK {
		t.Fatalf("route code %d: %s", code, resp)
	}
	code, metrics := do(t, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics code %d", code)
	}
	text := string(metrics)
	for _, want := range []string{
		"# TYPE dtrd_request_seconds histogram",
		"# TYPE dtrd_requests_total counter",
		"# TYPE dtrd_request_p50_seconds gauge",
		"# TYPE dtrd_request_p99_seconds gauge",
		"# TYPE dtrd_qps gauge",
		`endpoint="route"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if !strings.Contains(text, fmt.Sprintf("dtrd_topologies %d", 1)) {
		t.Errorf("metrics output missing dtrd_topologies 1")
	}
}

// TestGoldenBodyLimit pins the 413 limit_exceeded shape on the smallest cap,
// and that the cap is exact: a body of maxParamBody bytes is still parsed.
func TestGoldenBodyLimit(t *testing.T) {
	_, ts := testServer(t, Config{})
	loadTestTopo(t, ts)

	req := marshalReq(t, "search_too_large_request.json", SearchRequest{Budget: strings.Repeat("x", maxParamBody)})
	code, body := do(t, "POST", ts.URL+"/v1/topologies/t1/search", req)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized search code %d: %s", code, body)
	}
	golden(t, "search_too_large_response.json", body)

	atCap := append([]byte(`{"budget":"galactic"}`), bytes.Repeat([]byte(" "), maxParamBody)...)[:maxParamBody]
	code, body = do(t, "POST", ts.URL+"/v1/topologies/t1/search", atCap)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "galactic") {
		t.Fatalf("search body at the cap: code %d: %s", code, body)
	}

	for _, endpoint := range []string{"route", "whatif"} {
		code, body = do(t, "POST", ts.URL+"/v1/topologies/t1/"+endpoint, bytes.Repeat([]byte(" "), maxWeightsBody+1))
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || code != http.StatusRequestEntityTooLarge || e.Error.Code != CodeLimitExceeded {
			t.Errorf("oversized %s: code %d, body %s", endpoint, code, body)
		}
	}
}

// TestTrailingDataRefused pins that every decoded body is one JSON value:
// anything but whitespace after it answers 400 bad_request, on each
// endpoint's own fixture, while a whitespace tail is still accepted.
func TestTrailingDataRefused(t *testing.T) {
	_, ts := testServer(t, Config{})
	loadTestTopo(t, ts)
	code, body := do(t, "POST", ts.URL+"/v1/topologies/t1/search", []byte(`{"budget":"smoke"} {"nonsense":[`))
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || code != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
		t.Fatalf("search with trailing garbage: code %d: %s", code, body)
	}
	for _, tc := range []struct{ fixture, path string }{
		{"load_request.json", "/v1/topologies"},
		{"route_str_request.json", "/v1/topologies/t1/route"},
		{"whatif_str_request.json", "/v1/topologies/t1/whatif"},
		{"search_request.json", "/v1/topologies/t1/search"},
	} {
		fixture, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []string{` {"nonsense":[`, "{}", "\n1", "x", "]"} {
			code, body := do(t, "POST", ts.URL+tc.path, append(bytes.Clone(fixture), tail...))
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || code != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
				t.Errorf("%s + %q: code %d: %s", tc.fixture, tail, code, body)
			}
		}
		if code, body := do(t, "POST", ts.URL+tc.path, append(bytes.Clone(fixture), " \t\r\n"...)); code >= 400 {
			t.Errorf("%s + whitespace: code %d: %s", tc.fixture, code, body)
		}
	}
}

// TestDeleteFreesOrderSlot loads and deletes 1000 topologies: the listing
// order must not keep a slot per topology that ever existed.
func TestDeleteFreesOrderSlot(t *testing.T) {
	srv, ts := testServer(t, Config{PoolSize: 1})
	loadTestTopo(t, ts) // t1 stays, so the slice is not trivially empty
	load, err := json.Marshal(LoadRequest{Topology: "ring", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 1001; i++ {
		if code, body := do(t, "POST", ts.URL+"/v1/topologies", load); code != http.StatusCreated {
			t.Fatalf("load %d: code %d: %s", i, code, body)
		}
		if code, body := do(t, "DELETE", fmt.Sprintf("%s/v1/topologies/t%d", ts.URL, i), nil); code != http.StatusNoContent {
			t.Fatalf("delete t%d: code %d: %s", i, code, body)
		}
	}
	srv.mu.Lock()
	order, topos := len(srv.topoOrder), len(srv.topos)
	srv.mu.Unlock()
	if order != 1 || topos != 1 {
		t.Errorf("after 1000 load/delete pairs: %d order slots, %d topologies, want 1 and 1", order, topos)
	}
	code, body := do(t, "GET", ts.URL+"/v1/topologies", nil)
	var list TopologyList
	if err := json.Unmarshal(body, &list); err != nil || code != http.StatusOK || len(list.Topologies) != 1 || list.Topologies[0].ID != "t1" {
		t.Errorf("list after deletes: code %d: %s", code, body)
	}
}

// TestFinishedJobsEvicted drives the job insert path well past the
// finished-job cap: the registry stays bounded, the listing shows only live
// jobs, an evicted job polls as 404, and a job still running is never
// evicted however old it is.
func TestFinishedJobsEvicted(t *testing.T) {
	srv, ts := testServer(t, Config{PoolSize: 1})
	running := srv.addJob("t1")
	const extra = 20
	for i := 0; i < maxFinishedJobs+extra; i++ {
		j := srv.addJob("t1")
		var err error
		if i%2 == 1 {
			err = fmt.Errorf("search %d failed", i)
		}
		j.finish(&SearchResult{}, err)
	}
	srv.mu.Lock()
	order, jobs := len(srv.jobOrder), len(srv.jobs)
	srv.mu.Unlock()
	if order > maxFinishedJobs+1 || order != jobs {
		t.Fatalf("%d order slots, %d jobs; want both <= %d", order, jobs, maxFinishedJobs+1)
	}
	code, body := do(t, "GET", ts.URL+"/v1/jobs", nil)
	var list JobList
	if err := json.Unmarshal(body, &list); err != nil || code != http.StatusOK {
		t.Fatalf("list: code %d: %s", code, body)
	}
	if len(list.Jobs) != order || list.Jobs[0].ID != running.id || list.Jobs[0].Status != "running" {
		t.Fatalf("list has %d jobs (want %d) starting %+v; want the running %s first", len(list.Jobs), order, list.Jobs[0], running.id)
	}
	for _, ji := range list.Jobs {
		if code, body := do(t, "GET", ts.URL+"/v1/jobs/"+ji.ID, nil); code != http.StatusOK {
			t.Errorf("listed job %s: code %d: %s", ji.ID, code, body)
		}
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/jobs/j2", nil); code != http.StatusNotFound {
		t.Errorf("oldest finished job j2: code %d, want 404 after eviction", code)
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps nothing but the
// status, so an allocation count over it is the handler's own.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestRouteHandlerAllocs pins the warm POST .../route path's allocation
// count, decode to encode, for both request forms on a 150-arc topology (the
// bench's route-small size), and reports it. The ceiling is the count
// measured once the body was parsed and the response written without
// reflection and the middleware resolved its metrics once (2 for each form),
// plus two. What is left is net/http's: the mux's path match and
// http.MaxBytesReader; none of it grows with the arc count.
func TestRouteHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	srv, ts := testServer(t, Config{PoolSize: 1})
	load, err := json.Marshal(LoadRequest{Topology: "random", Nodes: 30, Links: 75, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := do(t, "POST", ts.URL+"/v1/topologies", load); code != http.StatusCreated {
		t.Fatalf("load: code %d: %s", code, body)
	}
	const arcs = 150
	for _, tc := range []struct {
		name string
		req  RouteRequest
		max  float64
	}{
		{"str", RouteRequest{Weights: perturb(arcs, 1)}, 4},
		{"dtr", RouteRequest{WeightsHigh: perturb(arcs, 2), WeightsLow: perturb(arcs, 3)}, 4},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(body)
		req := httptest.NewRequest("POST", "/v1/topologies/t1/route", nil)
		req.Body = io.NopCloser(rd)
		w := &discardWriter{header: make(http.Header)}
		serve := func() {
			rd.Reset(body)
			w.code = http.StatusOK
			srv.Handler().ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d", tc.name, w.code)
			}
		}
		serve() // warm: session routed once, pools primed
		if allocs := testing.AllocsPerRun(200, serve); allocs > tc.max {
			t.Errorf("%s: %v allocations per warm request, want <= %v", tc.name, allocs, tc.max)
		} else {
			t.Logf("%s: %v allocations per warm request", tc.name, allocs)
		}
	}
}

// TestPooledRequestsCarryNothingOver sends requests of different forms back
// to back, so each is decoded into the struct the previous one left in the
// pool: a field the body omits must read as absent, not as the last value.
func TestPooledRequestsCarryNothingOver(t *testing.T) {
	_, ts := testServer(t, Config{PoolSize: 1})
	arcs := loadTestTopo(t, ts)
	post := func(endpoint string, v any) (int, []byte) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return do(t, "POST", ts.URL+"/v1/topologies/t1/"+endpoint, body)
	}
	for round := 0; round < 3; round++ {
		var route RouteResponse
		code, body := post("route", RouteRequest{Weights: perturb(arcs, 1)})
		if err := json.Unmarshal(body, &route); err != nil || code != http.StatusOK || route.Scheme != "str" {
			t.Fatalf("round %d: str route: code %d: %s", round, code, body)
		}
		code, body = post("route", RouteRequest{WeightsHigh: perturb(arcs, 2), WeightsLow: perturb(arcs, 3)})
		if err := json.Unmarshal(body, &route); err != nil || code != http.StatusOK || route.Scheme != "dtr" {
			t.Fatalf("round %d: dtr route after str: code %d: %s", round, code, body)
		}
		if code, body = post("route", RouteRequest{}); code != http.StatusBadRequest {
			t.Fatalf("round %d: empty route after dtr: code %d: %s", round, code, body)
		}

		var sweep WhatIfResponse
		code, body = post("whatif", WhatIfRequest{
			WeightsHigh: perturb(arcs, 2), WeightsLow: perturb(arcs, 3),
			Failures: &FailureModel{Kind: "link", Sample: 4, Seed: 1},
		})
		if err := json.Unmarshal(body, &sweep); err != nil || code != http.StatusOK || sweep.Scheme != "dtr" || sweep.States != 4 {
			t.Fatalf("round %d: sampled dtr whatif: code %d: %s", round, code, body)
		}
		code, body = post("whatif", WhatIfRequest{Weights: perturb(arcs, 1)})
		if err := json.Unmarshal(body, &sweep); err != nil || code != http.StatusOK || sweep.Scheme != "str" || sweep.States != arcs/2 {
			t.Fatalf("round %d: default str whatif after sampled dtr: code %d, %d states, want %d: %s",
				round, code, sweep.States, arcs/2, body)
		}
	}
}
