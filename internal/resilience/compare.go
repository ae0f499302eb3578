package resilience

import (
	"fmt"
	"math"

	"dualtopo/internal/spf"
	"dualtopo/internal/stats"
)

// Samples holds the per-state low-priority degradation factors of one
// optimized point under one failure model: ΦL(failed)/ΦL(intact) for each
// surviving state, for both routing schemes in parallel. Weights stay fixed
// across states — OSPF reconverges on the survivors.
type Samples struct {
	// Labels names the surviving states; STR and DTR are their parallel
	// degradation-factor samples.
	Labels   []string
	STR, DTR []float64
	// BaseSTR and BaseDTR are the intact-network ΦL baselines.
	BaseSTR, BaseDTR float64
	// Disconnecting counts states that left some demand without a path
	// (skipped: both schemes lose the same physical reachability).
	Disconnecting int
}

// CompareSchemes sweeps both schemes' final weight settings over the same
// state set and pairs the outcomes. It fails when there is nothing to
// compare — no states, or every state disconnected the network — and on the
// (impossible by construction) event of the schemes disagreeing about
// reachability.
func CompareSchemes(sw *Sweeper, wSTR, wH, wL spf.Weights, states []State) (*Samples, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("resilience: no failure states to compare")
	}
	strSweep, err := sw.SweepSTR(wSTR, states)
	if err != nil {
		return nil, err
	}
	// Copy the STR outcomes out of the buffer the sweeper reuses.
	strPhiL := append([]float64(nil), strSweep.PhiL...)
	dtrSweep, err := sw.SweepDTR(wH, wL, states)
	if err != nil {
		return nil, err
	}
	fs := &Samples{BaseSTR: strSweep.Base, BaseDTR: dtrSweep.Base}
	for i, st := range states {
		sPhi, dPhi := strPhiL[i], dtrSweep.PhiL[i]
		if math.IsNaN(sPhi) != math.IsNaN(dPhi) {
			return nil, fmt.Errorf("resilience: schemes disagree on disconnection of state %q", st.Label)
		}
		if math.IsNaN(sPhi) {
			fs.Disconnecting++
			continue
		}
		fs.Labels = append(fs.Labels, st.Label)
		fs.STR = append(fs.STR, sPhi/fs.BaseSTR)
		fs.DTR = append(fs.DTR, dPhi/fs.BaseDTR)
	}
	if len(fs.STR) == 0 {
		// Name an offending state so the caller can fix the model or the
		// instance instead of guessing from a bare failure.
		return nil, fmt.Errorf("resilience: all %d evaluated failure states disconnected the network (first: state 0 %q)",
			len(states), states[0].Label)
	}
	return fs, nil
}

// DTRStillBetter counts states after which DTR keeps the lower absolute ΦL
// despite both schemes degrading.
func (fs *Samples) DTRStillBetter() int {
	n := 0
	for i := range fs.STR {
		if fs.DTR[i]*fs.BaseDTR <= fs.STR[i]*fs.BaseSTR {
			n++
		}
	}
	return n
}

// ClassSummary condenses one scheme's degradation distribution.
type ClassSummary struct {
	MeanDegr float64 `json:"mean_degradation"`
	P50Degr  float64 `json:"p50_degradation"`
	P95Degr  float64 `json:"p95_degradation"`
	MaxDegr  float64 `json:"max_degradation"`
	// WorstState names the failure state with the highest degradation.
	WorstState string `json:"worst_state"`
}

func classSummary(xs []float64, labels []string) ClassSummary {
	worst := ""
	if len(xs) > 0 {
		wi := 0
		for i, x := range xs {
			if x > xs[wi] {
				wi = i
			}
		}
		worst = labels[wi]
	}
	return ClassSummary{
		MeanDegr:   stats.Mean(xs),
		P50Degr:    stats.Quantile(xs, 0.5),
		P95Degr:    stats.Quantile(xs, 0.95),
		MaxDegr:    stats.Max(xs),
		WorstState: worst,
	}
}

// Summary condenses Samples for trial records and aggregates.
type Summary struct {
	// Model names the failure model that generated the states.
	Model string `json:"model"`
	// Evaluated counts all swept states (surviving + disconnecting).
	Evaluated     int          `json:"evaluated"`
	Disconnecting int          `json:"disconnecting"`
	STR           ClassSummary `json:"str"`
	DTR           ClassSummary `json:"dtr"`
	// DTRStillBetter counts states after which DTR keeps the lower absolute
	// ΦL.
	DTRStillBetter int `json:"dtr_still_better"`
}

// Summary condenses the samples; model names the generating failure model.
func (fs *Samples) Summary(model string) *Summary {
	return &Summary{
		Model:          model,
		Evaluated:      len(fs.STR) + fs.Disconnecting,
		Disconnecting:  fs.Disconnecting,
		STR:            classSummary(fs.STR, fs.Labels),
		DTR:            classSummary(fs.DTR, fs.Labels),
		DTRStillBetter: fs.DTRStillBetter(),
	}
}
