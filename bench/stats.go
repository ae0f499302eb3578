package main

import (
	"math"
	"slices"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything: p99 needs 1000 samples.
const minTailSamples = 10

// quantile returns the nearest-rank q-quantile of an ascending slice (the
// smallest element with at least q·n elements at or below it); 0 on empty
// input.
func quantile[T int64 | float64 | time.Duration](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailQuantile is the highest quantile, capped at p99, that still has
// minTailSamples samples beyond it. With 1000 or more samples it is 0.99;
// below that it slides toward the median, which is its floor.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	return max(0.5, min(0.99, 1-float64(minTailSamples)/float64(n)))
}

// median sorts xs in place and returns its nearest-rank median.
func median[T int64 | float64 | time.Duration](xs []T) T {
	slices.Sort(xs)
	return quantile(xs, 0.5)
}

// phaseStats is a measured phase reduced to the end-to-end timings.
type phaseStats struct {
	samples  int
	p50, p99 time.Duration
	opsPerS  float64
	// tailQ is the quantile p99 actually holds: 0.99 unless the phase was too
	// short to put minTailSamples samples beyond it.
	tailQ float64
}

// reduceWindows takes each non-empty slice's median latency and completion
// rate and reports the median of each over the slices. The tail needs more
// samples than the median does — a p99 is only worth reporting with
// minTailSamples samples beyond it — so for it the samples are re-cut, in
// order, into as many equal chunks (five, three or one) as leave every chunk
// enough of them; a slow workload's tail is thus taken over the whole phase,
// a fast one's is the median chunk's.
func reduceWindows(ws []window) phaseStats {
	var st phaseStats
	var p50s []time.Duration
	var rates []float64
	var all []time.Duration
	for _, w := range ws {
		if len(w.lat) == 0 {
			continue
		}
		all = append(all, w.lat...)
		p50s = append(p50s, median(slices.Clone(w.lat)))
		ops := w.ops
		if ops == 0 {
			ops = len(w.lat)
		}
		rates = append(rates, float64(ops)/w.span.Seconds())
	}
	st.samples = len(all)
	st.p50, st.opsPerS = median(p50s), median(rates)

	const perChunk = minTailSamples * 100 // what p99 needs
	chunks := 1
	for _, k := range []int{5, 3} {
		if len(all) >= k*perChunk {
			chunks = k
			break
		}
	}
	st.tailQ = tailQuantile(len(all) / chunks)
	var tails []time.Duration
	for c := 0; c < chunks; c++ {
		chunk := all[c*len(all)/chunks : (c+1)*len(all)/chunks]
		slices.Sort(chunk)
		tails = append(tails, quantile(chunk, st.tailQ))
	}
	st.p99 = median(tails)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
