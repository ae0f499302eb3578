// Package traffic implements the paper's traffic-matrix models (§5.1.2):
// the gravity model for low-priority demand (Eq. 6–7), the random model for
// high-priority demand (density k, volume fraction f, per-pair weights
// m(s,t) ∈ [1,4]), and the sink model emulating popular servers with
// uniformly or locally distributed clients.
package traffic

import (
	"fmt"
	"math"
	"slices"

	"dualtopo/internal/graph"
)

// Matrix is a |V|×|V| traffic matrix in Mbps. The diagonal is always zero:
// r(s,s) = 0 for all s. Storage is column-major and lazy: a destination's
// column is allocated on first write, so a matrix with d active destinations
// holds d·n float64s instead of n² — the difference between ~763 MB and a
// few MB for a sink-pattern matrix on a 10k-node graph. A fully populated
// matrix (gravity over every pair) costs the same as a dense layout.
//
// Routers read columns in place (Column) instead of copying them, so a
// matrix is immutable once a router over it exists: build and scale it
// first, then route.
type Matrix struct {
	n    int
	cols [][]float64 // cols[t][s]; a nil column is all-zero
}

// NewMatrix returns an all-zero n×n matrix. No columns are allocated until
// demand is written.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, cols: make([][]float64, n)}
}

// Size returns the node count n.
func (m *Matrix) Size() int { return m.n }

// At returns the demand from s to t.
func (m *Matrix) At(s, t graph.NodeID) float64 {
	c := m.cols[t]
	if c == nil {
		return 0
	}
	return c[s]
}

// Set assigns the demand from s to t. Setting a diagonal entry or a volume
// that is not a finite non-negative number panics: both indicate a
// generator bug. Writing zero to an untouched column is a no-op and
// allocates nothing.
func (m *Matrix) Set(s, t graph.NodeID, vol float64) {
	if s == t && vol != 0 {
		panic(fmt.Sprintf("traffic: self-demand at node %d", s))
	}
	if !(vol >= 0 && vol <= math.MaxFloat64) {
		panic(fmt.Sprintf("traffic: demand %g for (%d,%d) is not a finite non-negative volume", vol, s, t))
	}
	c := m.cols[t]
	if c == nil {
		if vol == 0 {
			return
		}
		c = make([]float64, m.n)
		m.cols[t] = c
	}
	c[s] = vol
}

// Add increases the demand from s to t by vol.
func (m *Matrix) Add(s, t graph.NodeID, vol float64) { m.Set(s, t, m.At(s, t)+vol) }

// Total returns the sum of all demands (ηH or ηL in the paper).
func (m *Matrix) Total() float64 {
	sum := 0.0
	for _, c := range m.cols {
		for _, x := range c {
			sum += x
		}
	}
	return sum
}

// Scale multiplies every demand by factor, which must be a finite
// non-negative number.
func (m *Matrix) Scale(factor float64) {
	if !(factor >= 0 && factor <= math.MaxFloat64) {
		panic(fmt.Sprintf("traffic: scale %g is not a finite non-negative factor", factor))
	}
	for _, c := range m.cols {
		for i := range c {
			c[i] *= factor
		}
	}
}

// Clone returns a deep copy. Unallocated columns stay unallocated.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	for t, col := range m.cols {
		if col != nil {
			c.cols[t] = append([]float64(nil), col...)
		}
	}
	return c
}

// Demand is one nonzero source-destination entry.
type Demand struct {
	Src, Dst graph.NodeID
	Volume   float64
}

// Demands returns all nonzero entries in row-major order — the iteration
// order every consumer (evaluator pair lists, OSPF flow setup) has always
// seen, preserved independent of the column-major storage.
func (m *Matrix) Demands() []Demand {
	var out []Demand
	for s := 0; s < m.n; s++ {
		for t, c := range m.cols {
			if c == nil {
				continue
			}
			if vol := c[s]; vol > 0 {
				out = append(out, Demand{graph.NodeID(s), graph.NodeID(t), vol})
			}
		}
	}
	return out
}

// NumPairs reports the number of nonzero entries.
func (m *Matrix) NumPairs() int {
	count := 0
	for _, c := range m.cols {
		for _, x := range c {
			if x > 0 {
				count++
			}
		}
	}
	return count
}

// Column returns the demands destined to t, indexed by source node, or nil
// when no demand toward t was ever written. The slice aliases the matrix's
// storage: callers must not modify it (see Matrix on immutability).
func (m *Matrix) Column(t graph.NodeID) []float64 { return m.cols[t] }

// DemandsTo copies the column of demands destined to t into out (grown as
// needed), zeros for a column never written. Routing reads columns in place
// through Column; DemandsTo is for a caller that wants a private copy.
func (m *Matrix) DemandsTo(t graph.NodeID, out []float64) []float64 {
	if c := m.cols[t]; c != nil {
		return append(out[:0], c...)
	}
	out = slices.Grow(out[:0], m.n)[:m.n]
	clear(out)
	return out
}

// ActiveDestinations returns every node that is the destination of at least
// one nonzero demand.
func (m *Matrix) ActiveDestinations() []graph.NodeID {
	var out []graph.NodeID
	for t, c := range m.cols {
		for _, x := range c {
			if x > 0 {
				out = append(out, graph.NodeID(t))
				break
			}
		}
	}
	return out
}
