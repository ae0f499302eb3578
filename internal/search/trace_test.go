package search

import (
	"bytes"
	"testing"

	"dualtopo/internal/eval"
)

// traceDTR runs a seeded DTR search with a JSONL tracer attached and
// returns the trace bytes.
func traceDTR(t *testing.T, p Params, kind eval.Kind) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	p.OnEvent = tw.OnEvent
	if _, err := DTR(randomEvaluator(t, kind, 23), p); err != nil {
		t.Fatal(err)
	}
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossWorkers pins the OnEvent contract: the
// trajectory trace is byte-identical at any Workers or RouteWorkers setting,
// so traces diff cleanly across machines and parallelism configurations.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	for _, kind := range []eval.Kind{eval.LoadBased, eval.SLABased} {
		t.Run(kind.String(), func(t *testing.T) {
			base := tinyParams()
			ref := traceDTR(t, base, kind)
			if len(ref) == 0 {
				t.Fatal("trace is empty")
			}
			for _, variant := range []struct {
				name string
				mod  func(*Params)
			}{
				{"workers=4", func(p *Params) { p.Workers = 4 }},
				{"routeworkers=4", func(p *Params) { p.RouteWorkers = 4 }},
			} {
				p := base
				variant.mod(&p)
				got := traceDTR(t, p, kind)
				if !bytes.Equal(got, ref) {
					t.Fatalf("%s: trace differs from sequential reference", variant.name)
				}
			}
		})
	}
}

// TestTraceEventShape sanity-checks the emitted stream: routines appear in
// order, iteration counters restart per routine, and the cumulative
// evaluation counts never decrease.
func TestTraceEventShape(t *testing.T) {
	var events []TraceEvent
	p := tinyParams()
	p.OnEvent = func(ev TraceEvent) { events = append(events, ev) }
	if _, err := DTR(randomEvaluator(t, eval.LoadBased, 23), p); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	lastRoutine := 0
	var lastDelta, lastFull int64
	for i, ev := range events {
		if ev.Routine < lastRoutine {
			t.Fatalf("event %d: routine %d after routine %d", i, ev.Routine, lastRoutine)
		}
		lastRoutine = ev.Routine
		if ev.DeltaEvals < lastDelta || ev.FullEvals < lastFull {
			t.Fatalf("event %d: evaluation counters went backwards (%d/%d after %d/%d)",
				i, ev.DeltaEvals, ev.FullEvals, lastDelta, lastFull)
		}
		lastDelta, lastFull = ev.DeltaEvals, ev.FullEvals
		switch ev.Kind {
		case "findH", "findL", "refine", "perturb":
		default:
			t.Fatalf("event %d: unknown kind %q", i, ev.Kind)
		}
	}
	if lastDelta == 0 {
		t.Fatal("delta evaluation counter never moved")
	}
}
