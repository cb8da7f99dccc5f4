// Package budgeted extends the Preference Cover problem with the two
// generalizations the paper's conclusion poses as future work: varying
// per-item revenues and storage (cost/capacity) considerations.
//
// The objective becomes expected covered revenue
//
//	F(S) = sum_v Revenue(v) * W(v) * P(request for v matched by S)
//
// subject to sum_{v in S} Cost(v) <= Budget. Because F is the plain cover
// function of a graph whose node weights are scaled by revenue, F inherits
// monotone submodularity, and the classic result for budgeted submodular
// maximization applies: taking the better of (a) plain-gain greedy and
// (b) gain/cost-ratio greedy, each truncated to the budget, and (c) the
// best single affordable item, guarantees at least (1 - 1/e)/2 of the
// optimum (Leskovec et al. 2007; Khuller-Moss-Naor for coverage). All
// passes use lazy evaluation.
package budgeted

import (
	"container/heap"
	"errors"
	"fmt"

	"prefcover/internal/graph"
	"prefcover/internal/kernel"
)

// Spec configures Solve.
type Spec struct {
	// Variant selects the cover semantics.
	Variant graph.Variant
	// Revenue is the per-item revenue multiplier (commission); nil means
	// all 1 (the paper's fixed-commission setting). Values must be >= 0.
	Revenue []float64
	// Cost is the per-item storage cost; nil means all 1, making Budget a
	// plain cardinality bound. Values must be > 0.
	Cost []float64
	// Budget is the total cost capacity; must be > 0.
	Budget float64
}

// Result is the budgeted solution.
type Result struct {
	// Order lists retained items in selection order of the winning pass.
	Order []int32
	// Gains are the marginal revenue gains realized per selection.
	Gains []float64
	// Revenue is F(S), the expected covered revenue.
	Revenue float64
	// CostUsed is the total cost of the retained set.
	CostUsed float64
	// Strategy records which candidate won: "benefit", "ratio" or
	// "single".
	Strategy string
}

// Solve runs the budgeted greedy scheme.
func Solve(g *graph.Graph, spec Spec) (*Result, error) {
	n := g.NumNodes()
	if spec.Budget <= 0 {
		return nil, errors.New("budgeted: budget must be positive")
	}
	revenue := spec.Revenue
	if revenue == nil {
		revenue = ones(n)
	} else if len(revenue) != n {
		return nil, fmt.Errorf("budgeted: revenue has %d entries for %d items", len(revenue), n)
	}
	cost := spec.Cost
	if cost == nil {
		cost = ones(n)
	} else if len(cost) != n {
		return nil, fmt.Errorf("budgeted: cost has %d entries for %d items", len(cost), n)
	}
	for v := 0; v < n; v++ {
		if revenue[v] < 0 {
			return nil, fmt.Errorf("budgeted: negative revenue for item %d", v)
		}
		if cost[v] <= 0 {
			return nil, fmt.Errorf("budgeted: non-positive cost for item %d", v)
		}
	}
	scaled, err := scaleByRevenue(g, revenue)
	if err != nil {
		return nil, err
	}

	benefit := greedyPass(scaled, spec.Variant, cost, spec.Budget, false)
	benefit.Strategy = "benefit"
	ratio := greedyPass(scaled, spec.Variant, cost, spec.Budget, true)
	ratio.Strategy = "ratio"
	single := bestSingle(scaled, spec.Variant, cost, spec.Budget)

	best := benefit
	if ratio.Revenue > best.Revenue {
		best = ratio
	}
	if single != nil && single.Revenue > best.Revenue {
		best = single
	}
	return best, nil
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// scaleByRevenue rebuilds g with node weights multiplied by revenue; the
// cover of the scaled graph is exactly the expected covered revenue.
func scaleByRevenue(g *graph.Graph, revenue []float64) (*graph.Graph, error) {
	allOne := true
	for _, r := range revenue {
		if r != 1 {
			allOne = false
			break
		}
	}
	if allOne {
		return g, nil
	}
	b := graph.NewBuilder(g.NumNodes(), g.NumEdges())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if g.Labeled() {
			b.AddLabeledNode(g.Label(v), g.NodeWeight(v)*revenue[v])
		} else {
			b.AddNode(g.NodeWeight(v) * revenue[v])
		}
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		dsts, ws := g.OutEdges(v)
		for i, u := range dsts {
			b.AddEdge(v, u, ws[i])
		}
	}
	return b.Build(graph.BuildOptions{})
}

// budgetEntry is a lazy-heap candidate; priority is gain (benefit pass) or
// gain/cost (ratio pass).
type budgetEntry struct {
	v        int32
	priority float64
	round    int
}

type budgetHeap []budgetEntry

func (h budgetHeap) Len() int { return len(h) }
func (h budgetHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].v < h[j].v
}
func (h budgetHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *budgetHeap) Push(x interface{}) { *h = append(*h, x.(budgetEntry)) }
func (h *budgetHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// greedyPass runs a lazy greedy under the budget. Items whose cost exceeds
// the remaining budget are skipped for the round but stay in the heap
// (their affordability can only... never return; remaining budget only
// shrinks, so they are dropped permanently).
func greedyPass(g *graph.Graph, variant graph.Variant, cost []float64, budget float64, byRatio bool) *Result {
	st := kernel.NewState(g, variant)
	defer st.Release()
	n := g.NumNodes()
	h := make(budgetHeap, 0, n)
	prio := func(v int32, gain float64) float64 {
		if byRatio {
			return gain / cost[v]
		}
		return gain
	}
	for v := int32(0); v < int32(n); v++ {
		h = append(h, budgetEntry{v: v, priority: prio(v, st.Gain(v)), round: 0})
	}
	heap.Init(&h)
	res := &Result{}
	remaining := budget
	round := 0
	for h.Len() > 0 {
		top := h[0]
		if cost[top.v] > remaining {
			// Permanently unaffordable: the remaining budget never grows.
			heap.Pop(&h)
			continue
		}
		if top.round != round {
			h[0].priority = prio(top.v, st.Gain(top.v))
			h[0].round = round
			heap.Fix(&h, 0)
			continue
		}
		heap.Pop(&h)
		gain := st.Add(top.v)
		if gain <= 0 {
			// The fresh top priority is nonpositive and every other
			// entry's stale bound is below it, so no candidate can still
			// contribute; stop instead of filling the budget with
			// useless items.
			break
		}
		res.Order = append(res.Order, top.v)
		res.Gains = append(res.Gains, gain)
		res.CostUsed += cost[top.v]
		remaining -= cost[top.v]
		round++
	}
	res.Revenue = sum(res.Gains)
	return res
}

// bestSingle returns the highest-revenue single affordable item, or nil
// when nothing is affordable.
func bestSingle(g *graph.Graph, variant graph.Variant, cost []float64, budget float64) *Result {
	st := kernel.NewState(g, variant)
	defer st.Release()
	best := int32(-1)
	bestGain := -1.0
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if cost[v] > budget {
			continue
		}
		if gain := st.Gain(v); gain > bestGain {
			best, bestGain = v, gain
		}
	}
	if best < 0 {
		return nil
	}
	return &Result{
		Order:    []int32{best},
		Gains:    []float64{bestGain},
		Revenue:  bestGain,
		CostUsed: cost[best],
		Strategy: "single",
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
