package graph

import (
	"fmt"
	"sort"
)

// Reverse returns a new graph with every edge direction flipped. Node
// weights and labels are shared with the receiver (both are immutable).
// The Theorem 4.1 reduction from directed Max Dominating Set relies on this.
func (g *Graph) Reverse() *Graph {
	return &Graph{
		nodeW:  g.nodeW,
		labels: g.labels,
		byName: g.byName,
		// The reverse graph's outgoing adjacency is exactly the original
		// incoming adjacency, and vice versa. The in/out CSR pair makes
		// this a zero-copy operation.
		outStart: g.inStart,
		outDst:   g.inSrc,
		outW:     g.inW,
		inStart:  g.outStart,
		inSrc:    g.outDst,
		inW:      g.outW,
	}
}

// Induce returns the subgraph induced by keep (which may be in any order and
// must not contain duplicates) plus a mapping from new ids to original ids.
// Node weights are copied verbatim (not re-normalized); use Renormalize when
// the result should be a preference graph in its own right.
func (g *Graph) Induce(keep []int32) (*Graph, []int32, error) {
	oldToNew := make(map[int32]int32, len(keep))
	newToOld := make([]int32, len(keep))
	for i, v := range keep {
		if v < 0 || int(v) >= g.NumNodes() {
			return nil, nil, fmt.Errorf("graph: induce references unknown node %d", v)
		}
		if _, dup := oldToNew[v]; dup {
			return nil, nil, fmt.Errorf("graph: induce received duplicate node %d", v)
		}
		oldToNew[v] = int32(i)
		newToOld[i] = v
	}
	b := NewBuilder(len(keep), 0)
	for _, old := range newToOld {
		if g.Labeled() {
			b.AddLabeledNode(g.Label(old), g.NodeWeight(old))
		} else {
			b.AddNode(g.NodeWeight(old))
		}
	}
	for newSrc, old := range newToOld {
		dsts, ws := g.OutEdges(old)
		for i, u := range dsts {
			if newDst, ok := oldToNew[u]; ok {
				b.AddEdge(int32(newSrc), newDst, ws[i])
			}
		}
	}
	sub, err := b.Build(BuildOptions{})
	if err != nil {
		return nil, nil, err
	}
	return sub, newToOld, nil
}

// TopNodesByWeight returns the ids of the n heaviest nodes (ties broken by
// smaller id), a convenient way to carve dataset subsets for the
// brute-force experiments of Figure 4a/4b.
func (g *Graph) TopNodesByWeight(n int) []int32 {
	if n > g.NumNodes() {
		n = g.NumNodes()
	}
	ids := make([]int32, g.NumNodes())
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		wi, wj := g.nodeW[ids[i]], g.nodeW[ids[j]]
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
	return ids[:n]
}

// Renormalize returns a copy of g whose node weights sum to 1. It fails on
// an all-zero graph.
func (g *Graph) Renormalize() (*Graph, error) {
	sum := g.TotalWeight()
	if sum <= 0 {
		return nil, fmt.Errorf("graph: cannot renormalize total weight %g", sum)
	}
	w := make([]float64, len(g.nodeW))
	for i, x := range g.nodeW {
		w[i] = x / sum
	}
	out := g.shallowCopy()
	out.nodeW = w
	return out, nil
}

// shallowCopy returns a graph sharing g's slices, for callers that replace
// some of them. The derived slot is not copied: state derived from g does
// not hold for the modified graph.
func (g *Graph) shallowCopy() *Graph {
	return &Graph{
		nodeW: g.nodeW, labels: g.labels, byName: g.byName,
		outStart: g.outStart, outDst: g.outDst, outW: g.outW,
		inStart: g.inStart, inSrc: g.inSrc, inW: g.inW,
	}
}

// ClosureOptions controls Closure.
type ClosureOptions struct {
	// Variant selects how path probabilities compose with existing edges:
	// Independent OR-combines (w = 1-(1-a)(1-b)); Normalized adds and caps
	// the per-node outgoing sum at 1 by proportional rescaling.
	Variant Variant
	// MaxDepth bounds the number of relaxation rounds; round r adds
	// two-hop compositions of the round r-1 graph, so depth d captures
	// replacement chains of length up to 2^d. The paper (footnote 2)
	// assumes the input graph is already transitively closed; this helper
	// exists for constructing such graphs from raw one-step "browsing"
	// graphs. Default 1.
	MaxDepth int
	// MinWeight prunes composed edges below this probability to keep the
	// closure sparse. Default 1e-4.
	MinWeight float64
}

// Closure returns the bounded probabilistic transitive closure of g: for
// every path v->w->u it considers the composed alternative probability
// W(v,w)*W(w,u) and merges it into the edge set. Self-compositions (paths
// returning to v) are discarded.
func (g *Graph) Closure(opts ClosureOptions) (*Graph, error) {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 1
	}
	if opts.MinWeight <= 0 {
		opts.MinWeight = 1e-4
	}
	cur := g
	for depth := 0; depth < opts.MaxDepth; depth++ {
		next, changed, err := cur.closeOnce(opts)
		if err != nil {
			return nil, err
		}
		cur = next
		if !changed {
			break
		}
	}
	return cur, nil
}

func (g *Graph) closeOnce(opts ClosureOptions) (*Graph, bool, error) {
	n := g.NumNodes()
	b := NewBuilder(n, g.NumEdges())
	for v := int32(0); v < int32(n); v++ {
		if g.Labeled() {
			b.AddLabeledNode(g.Label(v), g.NodeWeight(v))
		} else {
			b.AddNode(g.NodeWeight(v))
		}
	}
	changed := false
	for v := int32(0); v < int32(n); v++ {
		// Direct edges first.
		dsts, ws := g.OutEdges(v)
		for i, u := range dsts {
			b.AddEdge(v, u, ws[i])
		}
		// Two-hop compositions v->w->u, u != v.
		for i, w := range dsts {
			wv := ws[i]
			dd, dw := g.OutEdges(w)
			for j, u := range dd {
				if u == v {
					continue
				}
				composed := wv * dw[j]
				if composed < opts.MinWeight {
					continue
				}
				if _, direct := g.EdgeWeight(v, u); !direct {
					changed = true
				}
				b.AddEdge(v, u, composed)
			}
		}
	}
	policy := DupCombine
	if opts.Variant == Normalized {
		policy = DupSum
	}
	out, err := b.Build(BuildOptions{Duplicates: policy})
	if err != nil {
		return nil, false, err
	}
	if opts.Variant == Normalized {
		out = out.capOutWeights()
	}
	return out, changed, nil
}

// capOutWeights proportionally rescales any node whose outgoing weight sum
// exceeds 1 so the Normalized invariant holds. Returns a graph sharing
// structure with g but owning its edge-weight slices.
func (g *Graph) capOutWeights() *Graph {
	outW := make([]float64, len(g.outW))
	copy(outW, g.outW)
	scale := make([]float64, g.NumNodes())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		lo, hi := g.outStart[v], g.outStart[v+1]
		var s float64
		for i := lo; i < hi; i++ {
			s += outW[i]
		}
		scale[v] = 1
		if s > 1 {
			scale[v] = 1 / s
			for i := lo; i < hi; i++ {
				outW[i] /= s
			}
		}
	}
	inW := make([]float64, len(g.inW))
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		lo, hi := g.inStart[v], g.inStart[v+1]
		for i := lo; i < hi; i++ {
			inW[i] = g.inW[i] * scale[g.inSrc[i]]
		}
	}
	out := g.shallowCopy()
	out.outW = outW
	out.inW = inW
	return out
}
