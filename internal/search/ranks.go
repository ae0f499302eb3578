package search

import (
	"math"
	"math/rand/v2"
	"sort"

	"dualtopo/internal/graph"
)

// rankSampler draws ranks k ∈ [1, max] from the truncated heavy-tail
// distribution P(k) ∝ k^−τ of Algorithm 2 [20]. τ→0 selects ranks uniformly
// (cost-independent link choice); large τ concentrates on the extreme ranks.
type rankSampler struct {
	max int
	cum []float64 // cumulative probabilities, cum[max-1] == 1
}

// newRankSampler precomputes the CDF for ranks 1..max.
func newRankSampler(max int, tau float64) *rankSampler {
	if max < 1 {
		max = 1
	}
	cum := make([]float64, max)
	total := 0.0
	for k := 1; k <= max; k++ {
		total += math.Pow(float64(k), -tau)
		cum[k-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[max-1] = 1 // guard against rounding
	return &rankSampler{max: max, cum: cum}
}

// sample draws one rank in [1, max].
func (s *rankSampler) sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(s.cum, u) + 1
}

// rng wraps math/rand/v2 with the small helpers the searches need.
type rng struct {
	*rand.Rand
}

func newRNG(seed uint64) *rng {
	return &rng{rand.New(rand.NewPCG(seed, 0x64756c746f706f))} // "dultopo"
}

// shuffleEdges permutes a slice of edge IDs in place.
func (r *rng) shuffleEdges(s []graph.EdgeID) {
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}
