package dtrd

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"dualtopo/internal/engine"
	"dualtopo/internal/search"
)

// job is one asynchronous weight search. Searches run for seconds to hours
// depending on budget, so POST .../search returns 202 with a job ID
// immediately; the goroutine holds one pooled session for the duration and
// clients poll GET /v1/jobs/{id}.
type job struct {
	id     string
	topoID string

	mu     sync.Mutex
	status string // running | done | failed
	result *SearchResult
	errMsg string
}

func (j *job) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobInfo{
		ID:       j.id,
		Topology: j.topoID,
		Status:   j.status,
		Result:   j.result,
		Error:    j.errMsg,
	}
}

func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status != "running"
}

func (j *job) finish(res *SearchResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.status = "failed"
		j.errMsg = err.Error()
		return
	}
	j.status = "done"
	j.result = res
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	t := s.topo(w, r)
	if t == nil {
		return
	}
	var req SearchRequest
	if !decode(w, r, maxParamBody, "search", &req) {
		return
	}
	if req.Budget == "" {
		req.Budget = "tiny"
	}
	budget, err := search.BudgetByName(req.Budget)
	if err != nil {
		// The message predates the budget table's move into search and is
		// part of the API (testdata/search_bad_response.json).
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("experiments: unknown preset %q (smoke|tiny|small|paper)", req.Budget))
		return
	}
	if req.Guide < 0 || req.Guide > 1 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "guide must be in [0,1]")
		return
	}

	j := s.addJob(t.info.ID)
	s.jobsWG.Add(1)
	s.met.jobsRunning.Add(1)
	go func() {
		defer s.jobsWG.Done()
		defer s.met.jobsRunning.Add(-1)
		j.finish(s.runSearch(t, budget, req))
	}()
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// maxFinishedJobs bounds how many finished (done or failed) jobs the server
// keeps for polling; each holds three weight vectors.
const maxFinishedJobs = 64

// addJob registers a new running job for topology topoID. To keep the
// registry bounded it first evicts the oldest finished jobs, leaving room
// for the new one once it finishes; running jobs are never evicted, and
// polling an evicted job answers 404.
func (s *Server) addJob(topoID string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	finished := 0
	for _, id := range s.jobOrder {
		if s.jobs[id].finished() {
			finished++
		}
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		if finished >= maxFinishedJobs && s.jobs[id].finished() {
			delete(s.jobs, id)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	clear(s.jobOrder[len(kept):])
	s.nextJob++
	j := &job{id: fmt.Sprintf("j%d", s.nextJob), topoID: topoID, status: "running"}
	s.jobs[j.id] = j
	s.jobOrder = append(kept, j.id)
	return j
}

// runSearch executes the dtropt pipeline on a pooled session: STR from unit
// weights (seed = request seed), then the paper's DTR heuristic warm-started
// from the STR setting (seed+1). Budgets and seeding match dtropt exactly,
// so a daemon search reproduces the batch CLI bit for bit.
func (s *Server) runSearch(t *topology, budget search.Budget, req SearchRequest) (*SearchResult, error) {
	sess, err := t.handle.Session(context.Background())
	if err != nil {
		if err == engine.ErrLeaseTimeout {
			return nil, fmt.Errorf("no session available for search: %w", err)
		}
		return nil, err
	}
	defer func() {
		sess.Reset()           // a search touches everything; hand the pool a clean slate
		t.handle.Release(sess) //nolint:errcheck // Reset just cleared any checkpoint
	}()

	ev := sess.Evaluator()
	strParams := budget.STR
	strParams.Seed = req.Seed
	str, err := search.STR(ev, strParams)
	if err != nil {
		return nil, err
	}
	dtrParams := budget.DTR
	dtrParams.Seed = req.Seed + 1
	dtrParams.Guide = req.Guide
	dtrParams.Prune = req.Prune
	dtr, err := search.DTRFrom(ev, str.W, str.W, dtrParams)
	if err != nil {
		return nil, err
	}
	return &SearchResult{
		STRWeights:  str.W,
		WH:          dtr.WH,
		WL:          dtr.WL,
		STRPhiH:     str.Result.PhiH,
		STRPhiL:     str.Result.PhiL,
		DTRPhiH:     dtr.Result.PhiH,
		DTRPhiL:     dtr.Result.PhiL,
		Evaluations: str.Evaluations + dtr.Evaluations,
	}, nil
}
