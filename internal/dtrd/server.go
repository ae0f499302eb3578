package dtrd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dualtopo/internal/engine"
	"dualtopo/internal/eval"
	"dualtopo/internal/instance"
	"dualtopo/internal/obs"
	"dualtopo/internal/resilience"
	"dualtopo/internal/spf"
)

// Config parameterizes a Server.
type Config struct {
	// PoolSize is the default per-topology session pool size; 0 means
	// GOMAXPROCS. A LoadRequest's pool_size overrides it per topology.
	PoolSize int
	// LeaseTimeout bounds how long a request waits for a pooled session
	// before 503 pool_exhausted; 0 means the engine default (5s).
	LeaseTimeout time.Duration
	// Registry receives the server's metrics and backs /metrics; nil means
	// obs.Default().
	Registry *obs.Registry
	// Manifest, when non-nil, is served at /manifest.json.
	Manifest *obs.Manifest
}

// Server is the routing-as-a-service daemon core: topology registry, job
// registry, the /v1 handlers and the telemetry surface, all on one mux. It
// owns no listener — cmd/dtrd (and the tests) wrap Handler() in an
// http.Server.
type Server struct {
	cfg Config
	mux *http.ServeMux
	met *metrics

	mu        sync.Mutex
	topos     map[string]*topology
	topoOrder []string
	jobs      map[string]*job
	jobOrder  []string
	nextTopo  int
	nextJob   int

	draining atomic.Bool
	inflight sync.WaitGroup // HTTP requests in handlers
	jobsWG   sync.WaitGroup // background search jobs
}

// topology is one loaded instance: its engine handle plus the static info
// the API reports.
type topology struct {
	info   TopologyInfo
	handle *engine.Handle
}

// New builds a server. Call Close when done to stop its metrics ticker.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		met:   newMetrics(cfg.Registry),
		topos: make(map[string]*topology),
		jobs:  make(map[string]*job),
	}
	s.routes()
	obs.Mount(s.mux, cfg.Registry, cfg.Manifest)
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/topologies", s.wrap("load", s.handleLoad))
	s.mux.HandleFunc("GET /v1/topologies", s.wrap("list", s.handleList))
	s.mux.HandleFunc("GET /v1/topologies/{id}", s.wrap("get", s.handleGet))
	s.mux.HandleFunc("DELETE /v1/topologies/{id}", s.wrap("delete", s.handleDelete))
	s.mux.HandleFunc("POST /v1/topologies/{id}/route", s.wrap("route", s.handleRoute))
	s.mux.HandleFunc("POST /v1/topologies/{id}/whatif", s.wrap("whatif", s.handleWhatIf))
	s.mux.HandleFunc("POST /v1/topologies/{id}/search", s.wrap("search", s.handleSearch))
	s.mux.HandleFunc("GET /v1/jobs", s.wrap("jobs", s.handleJobs))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.wrap("job", s.handleJob))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// Handler returns the server's full HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close releases the server's background resources (the metrics ticker) and
// closes every loaded topology. It does not drain; call Drain/WaitIdle
// first for a graceful stop.
func (s *Server) Close() {
	s.met.stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.topos {
		t.handle.Close()
	}
}

// Drain flips the server into shutdown mode: every new /v1 request is
// refused with 503 draining while in-flight requests (and the telemetry
// endpoints) keep working.
func (s *Server) Drain() { s.draining.Store(true) }

// WaitIdle blocks until every in-flight request and background job has
// finished, or ctx expires.
func (s *Server) WaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusWriter captures the response code for the requests-by-code counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap is the per-endpoint middleware: drain gate, in-flight accounting,
// latency and request metrics.
func (s *Server) wrap(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		fn(sw, r)
		elapsed := time.Since(start).Seconds()
		s.met.observe(endpoint, sw.code, elapsed)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-write
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: Error{Code: code, Message: msg}})
}

// Request body caps, per endpoint. A body is read whole before it is parsed,
// so these bound what one request can make the daemon hold.
const (
	// maxParamBody covers load and search: one flat object of scalars.
	maxParamBody = 4 << 10
	// maxWeightsBody covers route and whatif: up to three weight vectors at
	// up to 11 bytes an arc ("2147483647,"), about 120 000 arcs.
	maxWeightsBody = 4 << 20
	// maxWhatIfStates caps the failure states one what-if sweeps: the whole
	// family, or min(family, sample) when the model samples. Sampling builds
	// only the sampled states, so it admits a single-link sweep of every
	// graph a body can name (about 60 000 links) and a sampled dual-link
	// sweep of any of them, and refuses, say, every dual-link failure of a
	// 392-link ISP (76 636 states).
	maxWhatIfStates = 1 << 16
)

// Topology load caps. A 4 KiB load body can name any size, and the build
// holds the graph plus dense n×n traffic matrices, so the sizes are bounded
// at the edge — well above the paper's 30-node instances and the 200-node
// hierarchy the benchmark loads.
const (
	maxLoadNodes    = 2000
	maxLoadLinks    = 20000
	maxLoadPoolSize = 256
)

// Per-request scratch, reused across requests: the body bytes and the two
// request shapes whose weight vectors are worth keeping.
var (
	bodyPool   = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	routePool  = sync.Pool{New: func() any { return new(RouteRequest) }}
	whatIfPool = sync.Pool{New: func() any { return new(WhatIfRequest) }}
)

// decode reads the request body once, refusing more than limit bytes, and
// strictly parses it into v. It reports whether it succeeded; when not, the
// 413 or 400 is written. what names the request in error messages.
func decode(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	body := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(body)
	body.Reset()
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeLimitExceeded,
				fmt.Sprintf("%s request body exceeds %d bytes", what, limit))
		} else {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "reading "+what+" request: "+err.Error())
		}
		return false
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid "+what+" request: "+err.Error())
		return false
	}
	return true
}

// topo resolves {id}, writing 404 when unknown.
func (s *Server) topo(w http.ResponseWriter, r *http.Request) *topology {
	id := r.PathValue("id")
	s.mu.Lock()
	t := s.topos[id]
	s.mu.Unlock()
	if t == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown topology "+id)
		return nil
	}
	return t
}

// session leases an engine session for the request, mapping lease failures
// to their HTTP shapes.
func (s *Server) session(w http.ResponseWriter, r *http.Request, t *topology) *engine.Session {
	sess, err := t.handle.Session(r.Context())
	switch {
	case err == nil:
		return sess
	case errors.Is(err, engine.ErrLeaseTimeout):
		writeError(w, http.StatusServiceUnavailable, CodePoolExhausted,
			"all sessions leased; retry or raise pool_size")
	case errors.Is(err, engine.ErrClosed):
		writeError(w, http.StatusNotFound, CodeNotFound, "topology was deleted")
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
	return nil
}

// release returns a session, surfacing the leaked-checkpoint assertion as a
// 500 if the handler forgot to revert (response may already be written; the
// metric and log-visible counter are the real signal).
func (s *Server) release(t *topology, sess *engine.Session) {
	if err := t.handle.Release(sess); err != nil {
		s.met.leakedReleases.Inc()
	}
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if !decode(w, r, maxParamBody, "load", &req) {
		return
	}
	if req.Objective == "" {
		req.Objective = "load"
	}
	kind, err := eval.ParseKind(req.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if req.Nodes > maxLoadNodes || req.Links > maxLoadLinks || req.PoolSize > maxLoadPoolSize {
		writeError(w, http.StatusUnprocessableEntity, CodeLimitExceeded,
			fmt.Sprintf("load of nodes=%d, links=%d, pool_size=%d is over the caps of %d, %d and %d",
				req.Nodes, req.Links, req.PoolSize, maxLoadNodes, maxLoadLinks, maxLoadPoolSize))
		return
	}
	poolSize := req.PoolSize
	if poolSize == 0 {
		poolSize = s.cfg.PoolSize
	}
	spec := engine.Spec{
		Name: req.Name,
		Instance: instance.Spec{
			Topology:   req.Topology,
			Nodes:      req.Nodes,
			Links:      req.Links,
			Capacity:   req.CapacityMbps,
			Kind:       kind,
			ThetaMs:    req.ThetaMs,
			F:          req.F,
			K:          req.K,
			HPModel:    req.HPModel,
			Sinks:      req.Sinks,
			LPSinks:    req.LPSinks,
			TargetUtil: req.TargetUtil,
			Seed:       req.Seed,
		},
		Pool: engine.PoolConfig{Size: poolSize, LeaseTimeout: s.cfg.LeaseTimeout},
	}
	h, err := engine.Load(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	family := req.Topology
	if family == "" {
		family = instance.TopoRandom
	}
	s.mu.Lock()
	s.nextTopo++
	id := fmt.Sprintf("t%d", s.nextTopo)
	info := TopologyInfo{
		ID:        id,
		Name:      req.Name,
		Topology:  family,
		Nodes:     h.Graph().NumNodes(),
		Arcs:      h.Graph().NumEdges(),
		Objective: req.Objective,
		Seed:      req.Seed,
		PoolSize:  h.PoolSize(),
	}
	s.topos[id] = &topology{info: info, handle: h}
	s.topoOrder = append(s.topoOrder, id)
	s.mu.Unlock()
	s.met.topologies.Add(1)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := TopologyList{Topologies: []TopologyInfo{}}
	for _, id := range s.topoOrder {
		list.Topologies = append(list.Topologies, s.topos[id].info)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	t := s.topo(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, t.info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	t := s.topos[id]
	if t != nil {
		delete(s.topos, id)
		s.topoOrder = slices.DeleteFunc(s.topoOrder, func(o string) bool { return o == id })
	}
	s.mu.Unlock()
	if t == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown topology "+id)
		return
	}
	t.handle.Close()
	s.met.topologies.Add(-1)
	w.WriteHeader(http.StatusNoContent)
}

// weightsFor validates the request's weight vectors against the topology,
// returning (scheme, w, wH, wL). A scheme of "" means the request was
// invalid and the response is written.
func weightsFor(w http.ResponseWriter, t *topology, ws, wh, wl spf.Weights, allowCompare bool) (string, spf.Weights, spf.Weights, spf.Weights) {
	g := t.handle.Graph()
	check := func(name string, wt spf.Weights) spf.Weights {
		if len(wt) != g.NumEdges() {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("%s: got %d weights, topology has %d arcs", name, len(wt), g.NumEdges()))
			return nil
		}
		if err := wt.Validate(g); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, name+": "+err.Error())
			return nil
		}
		return wt
	}
	hasSTR := len(ws) > 0
	hasDTR := len(wh) > 0 || len(wl) > 0
	switch {
	case hasSTR && hasDTR && allowCompare:
		wS, wH2, wL2 := check("weights", ws), check("weights_high", wh), check("weights_low", wl)
		if wS == nil || wH2 == nil || wL2 == nil {
			return "", nil, nil, nil
		}
		return "compare", wS, wH2, wL2
	case hasSTR && !hasDTR:
		wS := check("weights", ws)
		if wS == nil {
			return "", nil, nil, nil
		}
		return "str", wS, nil, nil
	case hasDTR && !hasSTR:
		wH2, wL2 := check("weights_high", wh), check("weights_low", wl)
		if wH2 == nil || wL2 == nil {
			return "", nil, nil, nil
		}
		return "dtr", nil, wH2, wL2
	default:
		msg := "provide weights (STR) or weights_high+weights_low (DTR)"
		if allowCompare {
			msg += ", or all three to compare"
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, msg)
		return "", nil, nil, nil
	}
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	t := s.topo(w, r)
	if t == nil {
		return
	}
	req := routePool.Get().(*RouteRequest)
	defer routePool.Put(req)
	*req = RouteRequest{Weights: req.Weights[:0], WeightsHigh: req.WeightsHigh[:0], WeightsLow: req.WeightsLow[:0]}
	if !decode(w, r, maxWeightsBody, "route", req) {
		return
	}
	scheme, ws, wh, wl := weightsFor(w, t, req.Weights, req.WeightsHigh, req.WeightsLow, false)
	if scheme == "" {
		return
	}
	sess := s.session(w, r, t)
	if sess == nil {
		return
	}
	defer s.release(t, sess)
	var res *eval.Result
	var err error
	if scheme == "str" {
		res, err = sess.EvaluateSTR(ws)
	} else {
		res, err = sess.EvaluateDTR(wh, wl)
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeUnroutable, err.Error())
		return
	}
	g := t.handle.Graph()
	writeJSON(w, http.StatusOK, RouteResponse{
		Scheme:         scheme,
		PhiH:           res.PhiH,
		PhiL:           res.PhiL,
		Lambda:         res.Lambda,
		Violations:     res.Violations,
		AvgUtilization: res.AvgUtilization(g),
		MaxUtilization: res.MaxUtilization(g),
	})
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	t := s.topo(w, r)
	if t == nil {
		return
	}
	req := whatIfPool.Get().(*WhatIfRequest)
	defer whatIfPool.Put(req)
	*req = WhatIfRequest{Weights: req.Weights[:0], WeightsHigh: req.WeightsHigh[:0], WeightsLow: req.WeightsLow[:0]}
	if !decode(w, r, maxWeightsBody, "whatif", req) {
		return
	}
	scheme, ws, wh, wl := weightsFor(w, t, req.Weights, req.WeightsHigh, req.WeightsLow, true)
	if scheme == "" {
		return
	}
	fm := FailureModel{}
	if req.Failures != nil {
		fm = *req.Failures
	}
	model := resilience.Model{
		Kind: fm.Kind, Count: fm.Count, SRLGs: fm.SRLGs,
		Sample: fm.Sample, Seed: fm.Seed,
	}
	n := model.Size(t.handle.Graph())
	if model.Sample > 0 {
		n = min(n, model.Sample)
	}
	if n > maxWhatIfStates {
		writeError(w, http.StatusUnprocessableEntity, CodeLimitExceeded,
			fmt.Sprintf("failure model %s sweeps %d states, over the what-if cap of %d", model, n, maxWhatIfStates))
		return
	}
	states, err := resilience.Enumerate(t.handle.Graph(), model)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "failure model: "+err.Error())
		return
	}
	sess := s.session(w, r, t)
	if sess == nil {
		return
	}
	defer s.release(t, sess)
	if scheme == "compare" {
		samples, err := sess.CompareUnderFailures(ws, wh, wl, states)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, CodeUnroutable, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, WhatIfResponse{
			Scheme:        "compare",
			States:        len(states),
			Survivors:     len(samples.Labels),
			Disconnecting: samples.Disconnecting,
			Compare: &WhatIfCompare{
				Labels:  samples.Labels,
				STR:     samples.STR,
				DTR:     samples.DTR,
				BaseSTR: samples.BaseSTR,
				BaseDTR: samples.BaseDTR,
			},
		})
		return
	}
	var sweep *resilience.Sweep
	if scheme == "str" {
		sweep, err = sess.SweepSTR(ws, states)
	} else {
		sweep, err = sess.SweepDTR(wh, wl, states)
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeUnroutable, err.Error())
		return
	}
	resp := WhatIfResponse{
		Scheme:        scheme,
		States:        len(states),
		Survivors:     sweep.Survivors,
		Disconnecting: sweep.Disconnecting,
		BasePhiL:      &sweep.Base,
		Results:       make([]WhatIfState, len(states)),
	}
	for i := range states {
		st := WhatIfState{Label: states[i].Label}
		if math.IsNaN(sweep.PhiL[i]) {
			st.Disconnected = true
		} else {
			phi := sweep.PhiL[i]
			st.PhiL = &phi
		}
		resp.Results[i] = st
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := JobList{Jobs: []JobInfo{}}
	for _, id := range s.jobOrder {
		list.Jobs = append(list.Jobs, s.jobs[id].snapshot())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job "+id)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}
