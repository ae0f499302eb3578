package search

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"dualtopo/internal/eval"
	"dualtopo/internal/spf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trajectories.json")

// goldenRun is the pinned outcome of one seeded search: everything a
// trajectory change would move.
type goldenRun struct {
	// Weights is the SHA-256 of the returned weight vectors (W for STR, WH
	// then WL for DTR).
	Weights     string     `json:"weights"`
	Best        [2]float64 `json:"best"`
	Evaluations int64      `json:"evaluations"`
	DeltaEvals  int64      `json:"delta_evals"`
	FullEvals   int64      `json:"full_evals"`
	Pruned      int64      `json:"pruned"`
	// Relaxed lists STR's ε-records in ascending ε.
	Relaxed []goldenRecord `json:"relaxed,omitempty"`
	// Trace is the SHA-256 of the TraceWriter JSONL stream; TraceLines its
	// event count.
	Trace      string `json:"trace,omitempty"`
	TraceLines int    `json:"trace_lines,omitempty"`
	// Trajectories holds a portfolio's per-trajectory runs, in strategy
	// order.
	Trajectories []goldenRun `json:"trajectories,omitempty"`
}

type goldenRecord struct {
	Epsilon float64 `json:"epsilon"`
	Found   bool    `json:"found"`
	Weights string  `json:"weights"`
	PhiH    float64 `json:"phi_h"`
	PhiL    float64 `json:"phi_l"`
}

func hashWeights(ws ...spf.Weights) string {
	h := sha256.New()
	for _, w := range ws {
		fmt.Fprintln(h, []int(w))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func goldenSTR(t *testing.T, kind eval.Kind, mod func(*STRParams)) goldenRun {
	t.Helper()
	p := tinySTRParams()
	p.Epsilons = []float64{0.05, 0.30}
	mod(&p)
	r, err := STR(randomEvaluator(t, kind, 16), p)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenRun{
		Weights:     hashWeights(r.W),
		Best:        [2]float64{r.Best.Primary, r.Best.Secondary},
		Evaluations: r.Evaluations,
	}
	for _, eps := range p.Epsilons {
		rec := r.Relaxed[eps]
		g.Relaxed = append(g.Relaxed, goldenRecord{
			Epsilon: eps, Found: rec.Found, Weights: hashWeights(rec.W), PhiH: rec.PhiH, PhiL: rec.PhiL,
		})
	}
	return g
}

func dtrGolden(r *DTRResult, trace []byte) goldenRun {
	return goldenRun{
		Weights:     hashWeights(r.WH, r.WL),
		Best:        [2]float64{r.Best.Primary, r.Best.Secondary},
		Evaluations: r.Evaluations,
		DeltaEvals:  r.DeltaEvals,
		FullEvals:   r.FullEvals,
		Pruned:      r.Pruned,
		Trace:       hashBytes(trace),
		TraceLines:  bytes.Count(trace, []byte("\n")),
	}
}

func goldenDTR(t *testing.T, kind eval.Kind, seed uint64, mod func(*eval.Evaluator, *Params)) goldenRun {
	t.Helper()
	e := randomEvaluator(t, kind, seed)
	p := tinyParams()
	mod(e, &p)
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	p.OnEvent = tw.OnEvent
	r, err := DTR(e, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	return dtrGolden(r, buf.Bytes())
}

// goldenPortfolio traces every trajectory into its own stream: concurrent
// trajectories interleave in one writer, each one's own events do not.
func goldenPortfolio(t *testing.T) goldenRun {
	t.Helper()
	e := randomEvaluator(t, eval.LoadBased, 23)
	n := e.Graph().NumEdges()
	p := tinyParams()
	p.N, p.K = 60, 40
	strat := DefaultPortfolio(4)
	bufs := make([]bytes.Buffer, len(strat))
	tws := make([]*TraceWriter, len(strat))
	for i := range tws {
		tws[i] = NewTraceWriter(&bufs[i])
	}
	var mu sync.Mutex
	pp := PortfolioParams{
		Base:        p,
		Strategies:  strat,
		Concurrency: 2,
		OnEvent: func(ev TraceEvent) {
			mu.Lock()
			defer mu.Unlock()
			tws[ev.Trajectory].OnEvent(ev)
		},
	}
	r, err := Portfolio(e, spf.Uniform(n), spf.Uniform(n), pp)
	if err != nil {
		t.Fatal(err)
	}
	g := dtrGolden(r.Best, nil)
	g.Trace, g.TraceLines = "", 0
	for i, tr := range r.Trajectories {
		if err := tws[i].Err(); err != nil {
			t.Fatal(err)
		}
		g.Trajectories = append(g.Trajectories, dtrGolden(tr.Result, bufs[i].Bytes()))
	}
	return g
}

// TestSearchTrajectoryGolden pins seeded STR, DTR and portfolio trajectories
// across commits: returned weights, evaluation counters, ε-records and trace
// streams must match testdata/trajectories.json exactly. The other search
// tests compare two settings of one build; this one catches a refactor that
// moves every setting the same way. Regenerate with
//
//	go test ./internal/search -run TestSearchTrajectoryGolden -update
//
// only for a change that is meant to alter trajectories.
func TestSearchTrajectoryGolden(t *testing.T) {
	got := map[string]goldenRun{
		"str/w1":  goldenSTR(t, eval.LoadBased, func(p *STRParams) {}),
		"str/w3":  goldenSTR(t, eval.LoadBased, func(p *STRParams) { p.Workers = 3 }),
		"str/sla": goldenSTR(t, eval.SLABased, func(p *STRParams) {}),

		"dtr/plain":    goldenDTR(t, eval.LoadBased, 23, func(*eval.Evaluator, *Params) {}),
		"dtr/guide0.5": goldenDTR(t, eval.LoadBased, 23, func(_ *eval.Evaluator, p *Params) { p.Guide = 0.5 }),
		"dtr/prune":    goldenDTR(t, eval.LoadBased, 23, func(_ *eval.Evaluator, p *Params) { p.Prune = true }),
		"dtr/prune-37": goldenDTR(t, eval.LoadBased, 37, func(_ *eval.Evaluator, p *Params) { p.Prune = true }),
		"dtr/sla-guided-pruned": goldenDTR(t, eval.SLABased, 37, func(_ *eval.Evaluator, p *Params) {
			p.Guide, p.Prune = 0.7, true
		}),
		"dtr/guided-pruned-w3": goldenDTR(t, eval.LoadBased, 23, func(_ *eval.Evaluator, p *Params) {
			p.Guide, p.Prune, p.Workers = 0.7, true, 3
		}),
		"dtr/robust": goldenDTR(t, eval.LoadBased, 41, func(e *eval.Evaluator, p *Params) {
			*p = robustParams(t, e)
		}),
		"dtr/sla": goldenDTR(t, eval.SLABased, 23, func(*eval.Evaluator, *Params) {}),

		"portfolio/4": goldenPortfolio(t),
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.Join("testdata", "trajectories.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, out) {
		return
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, _ := json.Marshal(got[name])
		w, _ := json.Marshal(want[name])
		if !bytes.Equal(g, w) {
			t.Errorf("%s: trajectory moved\n got %s\nwant %s", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d runs, test produced %d", len(want), len(got))
	}
}
