package budgeted

import (
	"fmt"

	"prefcover/internal/graph"
	"prefcover/internal/kernel"
)

// SolvePartialEnum runs the partial-enumeration variant of the budgeted
// greedy (Khuller, Moss & Naor 1999 for coverage; Sviridenko 2004 for
// general monotone submodular): every feasible seed set of size up to 3 is
// completed by the cost-ratio greedy, and the best completion is returned.
// This lifts the approximation guarantee from (1-1/e)/2 to (1-1/e) at
// O(n^3) greedy completions, so it is only practical for small catalogs —
// the maxSeeds budget guards against accidental huge runs (0 means no
// guard).
//
// Seed sets of size 1 and 2 are also enumerated (they are the size-3
// prefix cases with fewer elements); the plain Solve result is the
// starting candidate so SolvePartialEnum never returns something worse.
func SolvePartialEnum(g *graph.Graph, spec Spec, maxSeeds int64) (*Result, error) {
	n := g.NumNodes()
	base, err := Solve(g, spec)
	if err != nil {
		return nil, err
	}
	revenue := spec.Revenue
	if revenue == nil {
		revenue = ones(n)
	}
	cost := spec.Cost
	if cost == nil {
		cost = ones(n)
	}
	scaled, err := scaleByRevenue(g, revenue)
	if err != nil {
		return nil, err
	}
	// Seed count: n + C(n,2) + C(n,3).
	nn := int64(n)
	total := nn + nn*(nn-1)/2 + nn*(nn-1)*(nn-2)/6
	if maxSeeds > 0 && total > maxSeeds {
		return nil, fmt.Errorf("budgeted: partial enumeration needs %d seed completions, over the budget %d", total, maxSeeds)
	}
	best := base
	best.Strategy = base.Strategy + "+enum"
	trySeed := func(seed []int32) error {
		var seedCost float64
		for _, v := range seed {
			seedCost += cost[v]
		}
		if seedCost > spec.Budget {
			return nil
		}
		res := completeGreedy(scaled, spec.Variant, cost, spec.Budget, seed)
		if res.Revenue > best.Revenue {
			res.Strategy = "enum"
			best = res
		}
		return nil
	}
	for a := int32(0); a < int32(n); a++ {
		if err := trySeed([]int32{a}); err != nil {
			return nil, err
		}
		for b := a + 1; b < int32(n); b++ {
			if err := trySeed([]int32{a, b}); err != nil {
				return nil, err
			}
			for c := b + 1; c < int32(n); c++ {
				if err := trySeed([]int32{a, b, c}); err != nil {
					return nil, err
				}
			}
		}
	}
	return best, nil
}

// completeGreedy seeds a pooled state with the given set and completes it with
// the cost-ratio greedy under the remaining budget.
func completeGreedy(scaled *graph.Graph, variant graph.Variant, cost []float64, budget float64, seed []int32) *Result {
	st := kernel.NewState(scaled, variant)
	defer st.Release()
	res := &Result{}
	for _, v := range seed {
		gain := st.Add(v)
		res.Order = append(res.Order, v)
		res.Gains = append(res.Gains, gain)
		res.CostUsed += cost[v]
	}
	remaining := budget - res.CostUsed
	for {
		best := int32(-1)
		bestRatio := 0.0
		var bestGain float64
		for v := int32(0); v < int32(scaled.NumNodes()); v++ {
			if st.Retained(v) || cost[v] > remaining {
				continue
			}
			g := st.Gain(v)
			if g <= 0 {
				continue
			}
			ratio := g / cost[v]
			if ratio > bestRatio || (ratio == bestRatio && best >= 0 && v < best) {
				best, bestRatio, bestGain = v, ratio, g
			}
		}
		if best < 0 {
			break
		}
		st.Add(best)
		res.Order = append(res.Order, best)
		res.Gains = append(res.Gains, bestGain)
		res.CostUsed += cost[best]
		remaining -= cost[best]
	}
	res.Revenue = sum(res.Gains)
	return res
}
