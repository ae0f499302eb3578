package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"dualtopo/internal/dtrd"
	"dualtopo/internal/eval"
	"dualtopo/internal/resilience"
	"dualtopo/internal/spf"
)

// Answer checks. Every expectation comes from an eval.Evaluator built beside
// the system under test from the same instance spec, never from the code
// path being timed; comparisons are on float bits after the JSON round trip
// (Go's shortest-form float encoding round-trips exactly).

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// wantRoute scores one route request on the independent evaluator.
func wantRoute(ev *eval.Evaluator, req dtrd.RouteRequest) (dtrd.RouteResponse, error) {
	var res *eval.Result
	var err error
	scheme := "dtr"
	if len(req.Weights) > 0 {
		scheme = "str"
		res, err = ev.EvaluateSTR(req.Weights)
	} else {
		res, err = ev.EvaluateDTR(req.WeightsHigh, req.WeightsLow)
	}
	if err != nil {
		return dtrd.RouteResponse{}, err
	}
	g := ev.Graph()
	return dtrd.RouteResponse{
		Scheme: scheme, PhiH: res.PhiH, PhiL: res.PhiL, Lambda: res.Lambda,
		Violations:     res.Violations,
		AvgUtilization: res.AvgUtilization(g),
		MaxUtilization: res.MaxUtilization(g),
	}, nil
}

func checkRoute(want dtrd.RouteResponse, body []byte) error {
	var got dtrd.RouteResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("route response: %w", err)
	}
	if got.Scheme != want.Scheme || got.Violations != want.Violations ||
		!sameBits(got.PhiH, want.PhiH) || !sameBits(got.PhiL, want.PhiL) ||
		!sameBits(got.Lambda, want.Lambda) ||
		!sameBits(got.AvgUtilization, want.AvgUtilization) ||
		!sameBits(got.MaxUtilization, want.MaxUtilization) {
		return fmt.Errorf("route response %+v != independent evaluation %+v", got, want)
	}
	return nil
}

// whatIfWant pins what a sweep response must say: the intact ΦL is the
// route ΦL of the same weights, and one seeded state equals a from-scratch
// evaluation with that state's arcs failed.
type whatIfWant struct {
	states       int
	base         float64
	sample       int
	samplePhiL   float64
	disconnected bool
}

func wantWhatIf(ev *eval.Evaluator, req dtrd.WhatIfRequest, states []resilience.State, rng *rand.Rand) (whatIfWant, error) {
	wH, wL := spf.Weights(req.WeightsHigh), spf.Weights(req.WeightsLow)
	base, err := ev.EvaluateDTR(wH, wL)
	if err != nil {
		return whatIfWant{}, err
	}
	want := whatIfWant{states: len(states), base: base.PhiL, sample: rng.IntN(len(states))}
	arcs := states[want.sample].Arcs
	failed, err := ev.EvaluateDTR(wH.WithFailedArcs(arcs...), wL.WithFailedArcs(arcs...))
	switch {
	case errors.Is(err, spf.ErrNoPath):
		want.disconnected = true
	case err != nil:
		return whatIfWant{}, err
	default:
		want.samplePhiL = failed.PhiL
	}
	return want, nil
}

func checkWhatIf(want whatIfWant, body []byte) error {
	var got dtrd.WhatIfResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("whatif response: %w", err)
	}
	if got.Scheme != "dtr" || got.States != want.states || len(got.Results) != want.states ||
		got.Survivors+got.Disconnecting != want.states {
		return fmt.Errorf("whatif response shape: scheme %q, %d states, %d results, %d+%d outcomes; want dtr and %d",
			got.Scheme, got.States, len(got.Results), got.Survivors, got.Disconnecting, want.states)
	}
	if got.BasePhiL == nil || !sameBits(*got.BasePhiL, want.base) {
		return fmt.Errorf("whatif base ΦL %v != route ΦL %v of the same weights", got.BasePhiL, want.base)
	}
	st := got.Results[want.sample]
	switch {
	case want.disconnected != st.Disconnected:
		return fmt.Errorf("whatif state %q: disconnected=%v, full evaluation says %v", st.Label, st.Disconnected, want.disconnected)
	case !want.disconnected && (st.PhiL == nil || !sameBits(*st.PhiL, want.samplePhiL)):
		return fmt.Errorf("whatif state %q: ΦL %v != full evaluation under failed arcs %v", st.Label, st.PhiL, want.samplePhiL)
	}
	return nil
}
