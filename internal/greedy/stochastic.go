package greedy

import (
	"math"
	"math/rand"

	"prefcover/internal/kernel"
)

// stochasticPicker implements stochastic greedy (Mirzasoleiman et al.,
// "Lazier Than Lazy Greedy", AAAI 2015): each iteration evaluates the gain
// of only s = ceil((n/k) * ln(1/epsilon)) uniformly sampled non-retained
// candidates and takes the best. For monotone submodular objectives this
// achieves (1 - 1/e - epsilon) approximation in expectation with O(n
// log(1/epsilon)) total gain evaluations — independent of k — making it
// the cheapest strategy for very large budgets.
//
// Unlike the scan and lazy strategies it is randomized: results are
// reproducible only through Options.Seed and generally differ from the
// deterministic strategies' selection.
type stochasticPicker struct {
	st         *kernel.State
	sol        *Solution
	rng        *rand.Rand
	sampleSize int
	// pool holds the not-yet-retained candidates; retained entries are
	// swept lazily when sampled.
	pool []int32
}

func newStochasticPicker(st *kernel.State, sol *Solution, k int, epsilon float64, seed int64) *stochasticPicker {
	n := st.Graph().NumNodes()
	if k <= 0 || k > n {
		k = n
	}
	s := int(math.Ceil(float64(n) / float64(k) * math.Log(1/epsilon)))
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}
	pool := make([]int32, n)
	for i := range pool {
		pool[i] = int32(i)
	}
	return &stochasticPicker{
		st:         st,
		sol:        sol,
		rng:        rand.New(rand.NewSource(seed)),
		sampleSize: s,
		pool:       pool,
	}
}

func (sp *stochasticPicker) pick() (int32, float64, float64, bool, error) {
	// Partial Fisher-Yates over the candidate pool; retained nodes found
	// along the way are compacted out so the pool shrinks to V \ S.
	best := int32(-1)
	bestGain := -1.0
	sampled := 0
	for i := 0; i < len(sp.pool) && sampled < sp.sampleSize; {
		j := i + sp.rng.Intn(len(sp.pool)-i)
		sp.pool[i], sp.pool[j] = sp.pool[j], sp.pool[i]
		v := sp.pool[i]
		if sp.st.Retained(v) {
			// Compact: replace with the last pool entry and retry the
			// same position.
			sp.pool[i] = sp.pool[len(sp.pool)-1]
			sp.pool = sp.pool[:len(sp.pool)-1]
			continue
		}
		g := sp.st.Gain(v)
		sp.sol.GainEvals++
		sampled++
		if g > bestGain || (g == bestGain && v < best) {
			best, bestGain = v, g
		}
		i++
	}
	if best < 0 {
		return 0, 0, 0, false, nil
	}
	// The sample says nothing about unsampled candidates' gains, so no
	// sound remaining-gain bound exists for the stochastic strategy.
	return best, bestGain, BoundUnavailable, true, nil
}
