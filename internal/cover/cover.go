// Package cover implements the cover function C(S) of the Preference Cover
// problem for both variants (paper Definitions 2.1 and 2.2), together with
// the incremental marginal-gain machinery of the paper's Algorithms 2-5.
//
// An Engine maintains the retained set S and the array I (one entry per
// node) where I[v] is the probability that v is both requested and matched
// by S; sum(I) == C(S). Gain(v) returns the marginal increase of C(S) from
// retaining v in O(d_in(v)), and Add(v) commits it, updating I and C(S) —
// exactly the Gain/AddNode procedures of the paper, with the Independent
// variant's O(1)-per-neighbor update W(u,v)*(W(u)-I[u]).
//
// The Engine is the test reference, not a production solver: every solve
// runs on the flat, reused internal/kernel State, and the kernel's suites
// hold that state, and every strategy built on it, bit-identical to a
// literal Algorithm 1 loop over this Engine. Evaluate, EvaluateSet and
// PerItemCoverage are the from-scratch oracle both are checked against.
package cover

import (
	"fmt"
	"math"

	"prefcover/internal/graph"
)

// Engine tracks C(S) incrementally for one variant. Engines are not safe
// for concurrent mutation, but Gain is read-only and may be called from
// multiple goroutines between Add calls — this is what makes the paper's
// parallel argmax possible.
type Engine struct {
	g        *graph.Graph
	variant  graph.Variant
	retained []bool
	covered  []float64 // the paper's I array
	total    float64   // C(S)
	size     int       // |S|
}

// NewEngine returns an engine with S = {} for the given variant.
func NewEngine(g *graph.Graph, variant graph.Variant) *Engine {
	return &Engine{
		g:        g,
		variant:  variant,
		retained: make([]bool, g.NumNodes()),
		covered:  make([]float64, g.NumNodes()),
	}
}

// Cover returns C(S) for the current retained set.
func (e *Engine) Cover() float64 { return e.total }

// Size returns |S|.
func (e *Engine) Size() int { return e.size }

// Retained reports whether v is in S.
func (e *Engine) Retained(v int32) bool { return e.retained[v] }

// CoveredWeight returns I[v]: the probability v is requested and matched.
func (e *Engine) CoveredWeight(v int32) float64 { return e.covered[v] }

// ItemCoverage returns I[v]/W(v), the probability a request for v is
// matched; 1 for retained items, and defined as 1 for zero-weight items
// (there is nothing to cover).
func (e *Engine) ItemCoverage(v int32) float64 {
	w := e.g.NodeWeight(v)
	if w == 0 {
		return 1
	}
	return ClampCoverage(e.covered[v] / w)
}

// ClampCoverage snaps a coverage ratio into [0,1]. Incremental float noise
// can push I[v] a hair past W(v) (clamped to 1), and near-zero or poisoned
// weights can make the ratio Inf, negative, or NaN — a NaN ratio carries no
// coverage evidence, so it clamps to 0 rather than leaking into reports
// where it would poison C(S) aggregates.
func ClampCoverage(cov float64) float64 {
	switch {
	case math.IsNaN(cov):
		return 0
	case cov > 1: // includes +Inf
		return 1
	case cov < 0: // includes -Inf
		return 0
	}
	return cov
}

// Gain returns the marginal gain of adding v to S (Algorithms 2 and 4).
// Calling Gain on a retained node returns 0.
func (e *Engine) Gain(v int32) float64 {
	if e.retained[v] {
		return 0
	}
	// Retaining v covers the remainder of its own weight...
	g := e.g.NodeWeight(v) - e.covered[v]
	// ...plus, for every non-retained in-neighbor u, the increase of u's
	// cover. The two variants differ only in this per-neighbor term.
	srcs, ws := e.g.InEdges(v)
	switch e.variant {
	case graph.Normalized:
		for i, u := range srcs {
			if e.retained[u] || u == v {
				continue
			}
			g += e.g.NodeWeight(u) * ws[i]
		}
	default: // graph.Independent
		for i, u := range srcs {
			if e.retained[u] || u == v {
				continue
			}
			// I_{S∪v}[u] - I_S[u] simplifies to W(u,v)*(W(u)-I_S[u]):
			// the still-uncovered probability mass of u, matched by v
			// independently with probability W(u,v).
			g += ws[i] * (e.g.NodeWeight(u) - e.covered[u])
		}
	}
	return g
}

// Add commits v into S (Algorithms 3 and 5) and returns the realized gain.
// Adding an already-retained node is a no-op returning 0.
func (e *Engine) Add(v int32) float64 {
	if e.retained[v] {
		return 0
	}
	e.retained[v] = true
	e.size++
	delta := e.g.NodeWeight(v) - e.covered[v]
	e.covered[v] = e.g.NodeWeight(v)
	srcs, ws := e.g.InEdges(v)
	switch e.variant {
	case graph.Normalized:
		for i, u := range srcs {
			if e.retained[u] || u == v {
				continue
			}
			d := e.g.NodeWeight(u) * ws[i]
			e.covered[u] += d
			delta += d
		}
	default: // graph.Independent
		for i, u := range srcs {
			if e.retained[u] || u == v {
				continue
			}
			d := ws[i] * (e.g.NodeWeight(u) - e.covered[u])
			e.covered[u] += d
			delta += d
		}
	}
	e.total += delta
	return delta
}

// Evaluate computes C(S) from scratch (no incremental state), directly from
// the formulas of Definitions 2.1/2.2. It is the oracle the incremental
// engine is tested against, and what the brute-force baseline uses.
func Evaluate(g *graph.Graph, variant graph.Variant, retained []bool) float64 {
	var total float64
	n := int32(g.NumNodes())
	for v := int32(0); v < n; v++ {
		total += coverOf(g, variant, retained, v)
	}
	return total
}

// EvaluateSet is Evaluate for a set given as a node list.
func EvaluateSet(g *graph.Graph, variant graph.Variant, set []int32) (float64, error) {
	retained := make([]bool, g.NumNodes())
	for _, v := range set {
		if v < 0 || int(v) >= g.NumNodes() {
			return 0, fmt.Errorf("cover: set references unknown node %d", v)
		}
		retained[v] = true
	}
	return Evaluate(g, variant, retained), nil
}

// coverOf returns W(v) * P(request for v is matched by S).
func coverOf(g *graph.Graph, variant graph.Variant, retained []bool, v int32) float64 {
	w := g.NodeWeight(v)
	if retained[v] {
		return w
	}
	if w == 0 {
		return 0
	}
	dsts, ws := g.OutEdges(v)
	switch variant {
	case graph.Normalized:
		var p float64
		for i, u := range dsts {
			if retained[u] {
				p += ws[i]
			}
		}
		if p > 1 {
			p = 1
		}
		return w * p
	default: // graph.Independent
		miss := 1.0
		for i, u := range dsts {
			if retained[u] {
				miss *= 1 - ws[i]
			}
		}
		return w * (1 - miss)
	}
}

// PerItemCoverage returns, for every node, the probability its requests are
// matched by the given set (1 for retained or zero-weight nodes). This is
// the metadata column of the paper's Figure 2 output.
func PerItemCoverage(g *graph.Graph, variant graph.Variant, set []int32) ([]float64, error) {
	retained := make([]bool, g.NumNodes())
	for _, v := range set {
		if v < 0 || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("cover: set references unknown node %d", v)
		}
		retained[v] = true
	}
	out := make([]float64, g.NumNodes())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		w := g.NodeWeight(v)
		if retained[v] || w == 0 {
			out[v] = 1
			continue
		}
		out[v] = coverOf(g, variant, retained, v) / w
	}
	return out, nil
}

// CheckConsistency verifies that the engine's incremental state matches a
// from-scratch evaluation within tolerance; used by tests and available for
// long-running callers that want a self-check.
func (e *Engine) CheckConsistency(tol float64) error {
	fresh := Evaluate(e.g, e.variant, e.retained)
	if math.Abs(fresh-e.total) > tol {
		return fmt.Errorf("cover: incremental C(S)=%.12f but fresh evaluation=%.12f", e.total, fresh)
	}
	var isum float64
	for _, x := range e.covered {
		isum += x
	}
	if math.Abs(isum-e.total) > tol {
		return fmt.Errorf("cover: sum(I)=%.12f but C(S)=%.12f", isum, e.total)
	}
	return nil
}
