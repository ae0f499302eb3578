// Package cost implements the paper's two objective families (§3): the
// load-based Fortz–Thorup piecewise-linear cost (Eq. 1) applied per class —
// with the low-priority class charged against residual capacity — and the
// SLA-based cost (Eq. 3–4) built from per-link delays and per-pair delay
// bounds, plus the lexicographic tuples used to order solutions (Eq. 2, 5).
package cost

import "math"

// Piecewise-linear segment boundaries (as utilization x = load/capacity) and
// slopes from Eq. (1). Intercepts (×capacity) make the function continuous.
var (
	ftBounds     = []float64{1.0 / 3, 2.0 / 3, 9.0 / 10, 1.0, 11.0 / 10}
	ftSlopes     = []float64{1, 3, 10, 70, 500, 5000}
	ftIntercepts = []float64{0, -2.0 / 3, -16.0 / 3, -178.0 / 3, -1468.0 / 3, -16318.0 / 3}
)

// Phi evaluates the Fortz–Thorup piecewise-linear link cost of Eq. (1) for
// the given load and capacity. For capacity <= 0 (a fully consumed residual
// link) the cost continues on the steepest segment, Phi = 5000·load, keeping
// the objective finite and monotone in load.
func Phi(load, capacity float64) float64 {
	if load <= 0 {
		return 0
	}
	if capacity <= 0 {
		return ftSlopes[len(ftSlopes)-1] * load
	}
	u := load / capacity
	seg := len(ftSlopes) - 1
	for i, b := range ftBounds {
		if u <= b {
			seg = i
			break
		}
	}
	return ftSlopes[seg]*load + ftIntercepts[seg]*capacity
}

// PhiDerivative returns the slope of Phi with respect to load at the given
// operating point — useful for ablations and sanity checks.
func PhiDerivative(load, capacity float64) float64 {
	if capacity <= 0 {
		return ftSlopes[len(ftSlopes)-1]
	}
	u := load / capacity
	for i, b := range ftBounds {
		if u <= b {
			return ftSlopes[i]
		}
	}
	return ftSlopes[len(ftSlopes)-1]
}

// Residual returns the capacity left for low-priority traffic on a link
// carrying h units of high-priority traffic: max(C − h, 0).
func Residual(capacity, h float64) float64 {
	if r := capacity - h; r > 0 {
		return r
	}
	return 0
}

// Lex is a lexicographically ordered pair ⟨Primary, Secondary⟩. The paper
// orders solutions by ⟨ΦH, ΦL⟩ (Eq. 2) or ⟨Λ, ΦL⟩ (Eq. 5), and links inside
// FindH by ⟨ΦH,l, ΦL,l⟩ or ⟨Dl, ΦL,l⟩.
type Lex struct {
	Primary, Secondary float64
}

// Less reports whether l precedes r in lexicographic order.
func (l Lex) Less(r Lex) bool {
	if l.Primary != r.Primary {
		return l.Primary < r.Primary
	}
	return l.Secondary < r.Secondary
}

// Compare returns -1, 0 or +1 as l is before, equal to, or after r.
func (l Lex) Compare(r Lex) int {
	switch {
	case l.Less(r):
		return -1
	case r.Less(l):
		return 1
	default:
		return 0
	}
}

// SLA holds the SLA-based cost parameters of §3.2 with the paper's defaults.
type SLA struct {
	ThetaMs        float64 // per-pair end-to-end delay bound θ (ms)
	PenaltyA       float64 // fixed penalty per violated pair (a)
	PenaltyB       float64 // penalty per ms of excess delay (b)
	PacketSizeBits float64 // average packet size s used in Eq. (3)
}

// DefaultSLA returns the paper's parameters: θ = 25 ms, a = 100, b = 1, and
// a 1000-byte average packet.
func DefaultSLA() SLA {
	return SLA{ThetaMs: 25, PenaltyA: 100, PenaltyB: 1, PacketSizeBits: 8000}
}

// transmissionMs returns s/C in milliseconds for capacity in Mbps.
func (s SLA) transmissionMs(capacityMbps float64) float64 {
	return s.PacketSizeBits / (capacityMbps * 1000)
}

// LinkDelayApprox computes the paper's Eq. (3) link delay (ms), using the
// piecewise cost ratio ΦH,l/Cl to approximate the M/M/1 term Hl/(Cl−Hl):
//
//	Dl = s/Cl (ΦH,l/Cl + 1) + pl
func (s SLA) LinkDelayApprox(phiH, capacityMbps, propDelayMs float64) float64 {
	return s.transmissionMs(capacityMbps)*(phiH/capacityMbps+1) + propDelayMs
}

// LinkDelayExact computes the exact M/M/1 link delay (ms). For loads at or
// beyond capacity the delay is +Inf.
func (s SLA) LinkDelayExact(h, capacityMbps, propDelayMs float64) float64 {
	if h >= capacityMbps {
		return math.Inf(1)
	}
	return s.transmissionMs(capacityMbps)*(h/(capacityMbps-h)+1) + propDelayMs
}

// PairPenalty computes Λ(s,t) of Eq. (4) for a pair with expected delay
// xiMs: zero when within the bound, a + b·(ξ−θ) beyond it. An infinite
// delay (unreachable pair) yields an infinite penalty.
func (s SLA) PairPenalty(xiMs float64) float64 {
	if xiMs <= s.ThetaMs {
		return 0
	}
	return s.PenaltyA + s.PenaltyB*(xiMs-s.ThetaMs)
}

// Relaxed returns a copy of s with the delay bound loosened to (1+eps)·θ,
// the STR relaxation of §3.3.2 / §5.3.2.
func (s SLA) Relaxed(eps float64) SLA {
	r := s
	r.ThetaMs *= 1 + eps
	return r
}
