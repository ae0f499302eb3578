// Package stats provides the small numeric summaries the experiment harness
// reports: means, extremes, histograms and sorted series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SortedDescending returns a copy of xs sorted high to low (Fig. 6's
// sorted link-utilization series).
func SortedDescending(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Histogram is a fixed-width bucketing of a sample (Fig. 3's link-count
// by utilization charts).
type Histogram struct {
	// Lo and Width define bucket i as [Lo+i·Width, Lo+(i+1)·Width); the last
	// bucket also includes its upper edge.
	Lo, Width float64
	Counts    []int
}

// NewHistogram buckets xs into n equal-width buckets spanning [lo, hi].
// Values outside the range are clamped into the first or last bucket so no
// sample is silently dropped. It panics when n < 1 or hi ≤ lo: histogram
// geometry is always caller-chosen, so a bad shape is a bug.
func NewHistogram(xs []float64, lo, hi float64, n int) *Histogram {
	if n < 1 {
		panic(fmt.Sprintf("stats: histogram with %d buckets", n))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: histogram range [%g,%g]", lo, hi))
	}
	h := &Histogram{Lo: lo, Width: (hi - lo) / float64(n), Counts: make([]int, n)}
	for _, x := range xs {
		i := int((x - lo) / h.Width)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		h.Counts[i]++
	}
	return h
}

// BucketCenter returns the midpoint of bucket i.
func (h *Histogram) BucketCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}

// Total returns the number of bucketed samples.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}
