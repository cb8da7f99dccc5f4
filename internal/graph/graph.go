// Package graph provides the preference-graph substrate used throughout the
// library: a read-only, weighted, directed graph stored in compressed sparse
// row (CSR) form, with both forward (outgoing) and reverse (incoming)
// adjacency so that cover computations can iterate over in-neighbors in
// O(d_in(v)) as required by the paper's Algorithms 2-5.
//
// A preference graph (paper Section 2) assigns every node v a weight
// W(v) in [0,1] (its purchase popularity; all node weights sum to 1) and
// every edge (v,u) a weight W(v,u) in (0,1] (the probability that u
// satisfies a request for v as an alternative).
//
// Graphs are built with a Builder and immutable afterwards, which makes them
// safe for concurrent readers without locking.
package graph

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Weight epsilon used when validating stochastic constraints. Clickstream
// derived weights are ratios of counts, so they are exact in binary only up
// to rounding; validation must not reject them for float noise.
const Eps = 1e-9

// Graph is an immutable weighted directed graph in CSR form.
//
// Node identifiers are dense integers in [0, NumNodes()). An optional string
// label can be attached to every node (item SKUs in the e-commerce setting);
// labels, when present, are unique.
type Graph struct {
	nodeW  []float64
	labels []string         // empty if unlabeled
	byName map[string]int32 // nil if unlabeled

	// Outgoing adjacency: edges leaving v are
	// (outDst[i], outW[i]) for i in [outStart[v], outStart[v+1]).
	outStart []int64
	outDst   []int32
	outW     []float64

	// Incoming adjacency: edges entering v are
	// (inSrc[i], inW[i]) for i in [inStart[v], inStart[v+1]).
	inStart []int64
	inSrc   []int32
	inW     []float64

	derived atomic.Value // the one slot for solver state derived from the graph (see Derived)
}

// Derived returns the value in g's derived slot, first storing init's
// result if init is non-nil and the slot is empty; concurrent first callers
// all get the one value stored. A graph is immutable, so state derived from
// it alone, such as the kernel's solver record, can live on it and be
// collected with it. A function, not a method, to stay off the public alias.
func Derived(g *Graph, init func() any) any {
	if v := g.derived.Load(); v != nil || init == nil {
		return v
	}
	g.derived.CompareAndSwap(nil, init())
	return g.derived.Load()
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodeW) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.outDst) }

// NodeWeight returns W(v), the request probability of node v.
func (g *Graph) NodeWeight(v int32) float64 { return g.nodeW[v] }

// NodeWeights returns the underlying node-weight slice. The caller must
// treat it as read-only.
func (g *Graph) NodeWeights() []float64 { return g.nodeW }

// TotalWeight returns the sum of all node weights (1 for a well-formed
// preference graph, but reductions produce unnormalized graphs).
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, w := range g.nodeW {
		s += w
	}
	return s
}

// Labeled reports whether nodes carry string labels.
func (g *Graph) Labeled() bool { return len(g.labels) > 0 }

// Label returns the label of node v, or a synthesized "#<v>" when the graph
// is unlabeled.
func (g *Graph) Label(v int32) string {
	if len(g.labels) == 0 {
		return fmt.Sprintf("#%d", v)
	}
	return g.labels[v]
}

// Lookup returns the node with the given label. On an unlabeled graph it
// accepts exactly the synthesized labels Label returns: "#" followed by a
// canonical decimal (no sign, no leading zero) in [0, n).
func (g *Graph) Lookup(label string) (int32, bool) {
	if g.byName != nil {
		v, ok := g.byName[label]
		return v, ok
	}
	digits, ok := strings.CutPrefix(label, "#")
	if !ok || digits == "" || len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	v, err := strconv.ParseUint(digits, 10, 31)
	if err != nil || v >= uint64(g.NumNodes()) {
		return 0, false
	}
	return int32(v), true
}

// OutDegree returns the number of outgoing edges of v (the number of
// alternatives consumers consider for v).
func (g *Graph) OutDegree(v int32) int {
	return int(g.outStart[v+1] - g.outStart[v])
}

// InDegree returns the number of incoming edges of v (the number of items
// for which v is an alternative).
func (g *Graph) InDegree(v int32) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// MaxInDegree returns D, the maximum in-degree, the parameter in the paper's
// O(nkD) complexity bound.
func (g *Graph) MaxInDegree() int {
	max := 0
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if d := g.InDegree(v); d > max {
			max = d
		}
	}
	return max
}

// OutEdges returns the destinations and weights of v's outgoing edges. The
// returned slices alias the graph's storage and must be treated as
// read-only.
func (g *Graph) OutEdges(v int32) ([]int32, []float64) {
	lo, hi := g.outStart[v], g.outStart[v+1]
	return g.outDst[lo:hi], g.outW[lo:hi]
}

// InEdges returns the sources and weights of v's incoming edges. The
// returned slices alias the graph's storage and must be treated as
// read-only.
func (g *Graph) InEdges(v int32) ([]int32, []float64) {
	lo, hi := g.inStart[v], g.inStart[v+1]
	return g.inSrc[lo:hi], g.inW[lo:hi]
}

// InCSR exposes the raw reverse-adjacency CSR arrays: the edges entering v
// are (src[i], w[i]) for i in [start[v], start[v+1]). Data-oriented kernels
// use this to iterate edge ranges without the per-node slice headers
// InEdges materializes. The returned slices alias the graph's storage and
// must be treated as read-only.
func (g *Graph) InCSR() (start []int64, src []int32, w []float64) {
	return g.inStart, g.inSrc, g.inW
}

// EdgeWeight returns W(v,u) and whether the edge (v,u) exists. Edges within
// a node's adjacency are sorted by destination, so this is a binary search.
func (g *Graph) EdgeWeight(v, u int32) (float64, bool) {
	lo, hi := g.outStart[v], g.outStart[v+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch d := g.outDst[mid]; {
		case d == u:
			return g.outW[mid], true
		case d < u:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

// OutWeightSum returns the sum of v's outgoing edge weights. Under the
// Normalized variant this must be at most 1.
func (g *Graph) OutWeightSum(v int32) float64 {
	lo, hi := g.outStart[v], g.outStart[v+1]
	var s float64
	for i := lo; i < hi; i++ {
		s += g.outW[i]
	}
	return s
}

// Variant selects the probabilistic interpretation of edge weights
// (paper Sections 2.1 and 2.2).
type Variant uint8

const (
	// Independent (IPC_k): alternative suitability events are independent;
	// a request for an absent v is matched with probability
	// 1 - prod_{u in R_v(S)} (1 - W(v,u)).
	Independent Variant = iota
	// Normalized (NPC_k): each consumer accepts at most one alternative;
	// out-weights sum to at most 1 and a request for an absent v is matched
	// with probability sum_{u in R_v(S)} W(v,u).
	Normalized
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Independent:
		return "independent"
	case Normalized:
		return "normalized"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// ParseVariant parses "independent"/"normalized" (case-sensitive) and the
// short forms "i"/"n".
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "independent", "i", "ipc":
		return Independent, nil
	case "normalized", "n", "npc":
		return Normalized, nil
	}
	return 0, fmt.Errorf("graph: unknown variant %q (want independent or normalized)", s)
}

// Validation errors.
var (
	ErrNodeWeightRange  = errors.New("graph: node weight outside [0,1]")
	ErrEdgeWeightRange  = errors.New("graph: edge weight outside (0,1]")
	ErrNotSimplex       = errors.New("graph: node weights do not sum to 1")
	ErrOutWeightExceeds = errors.New("graph: normalized variant requires per-node outgoing weight sum <= 1")
	ErrSelfLoop         = errors.New("graph: self loop")
)

// ValidateOptions controls Validate.
type ValidateOptions struct {
	// Variant to validate against. Normalized additionally checks that
	// every node's outgoing weights sum to at most 1.
	Variant Variant
	// RequireSimplex requires node weights to sum to 1 (within Eps*n).
	RequireSimplex bool
	// AllowSelfLoops permits edges (v,v). Preference graphs have no use for
	// them (a retained node covers itself with probability 1), but the
	// VC_k reduction of Theorem 3.1 introduces them.
	AllowSelfLoops bool
}

// Validate checks the preference-graph invariants of Section 2 and returns
// the first violation found.
func (g *Graph) Validate(opts ValidateOptions) error {
	var sum float64
	for v, w := range g.nodeW {
		if w < -Eps || w > 1+Eps || math.IsNaN(w) {
			return fmt.Errorf("%w: node %d has weight %g", ErrNodeWeightRange, v, w)
		}
		sum += w
	}
	if opts.RequireSimplex {
		tol := Eps * float64(g.NumNodes()+1)
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("%w: sum is %g", ErrNotSimplex, sum)
		}
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		dsts, ws := g.OutEdges(v)
		var out float64
		for i, u := range dsts {
			w := ws[i]
			if w <= 0 || w > 1+Eps || math.IsNaN(w) {
				return fmt.Errorf("%w: edge (%d,%d) has weight %g", ErrEdgeWeightRange, v, u, w)
			}
			if u == v && !opts.AllowSelfLoops {
				return fmt.Errorf("%w: node %d", ErrSelfLoop, v)
			}
			out += w
		}
		if opts.Variant == Normalized {
			tol := Eps * float64(len(dsts)+1)
			if out > 1+tol {
				return fmt.Errorf("%w: node %d has outgoing sum %g", ErrOutWeightExceeds, v, out)
			}
		}
	}
	return nil
}

// Edge is a materialized directed edge, used by the Builder and codecs.
type Edge struct {
	Src, Dst int32
	W        float64
}

// Edges returns all edges in (src, dst) order. It allocates; intended for
// tests, codecs and small graphs.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		dsts, ws := g.OutEdges(v)
		for i, u := range dsts {
			out = append(out, Edge{Src: v, Dst: u, W: ws[i]})
		}
	}
	return out
}
