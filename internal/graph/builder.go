package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// DuplicatePolicy decides what Build does when the same (src,dst) edge is
// added more than once.
type DuplicatePolicy uint8

const (
	// DupError rejects duplicate edges.
	DupError DuplicatePolicy = iota
	// DupKeepMax keeps the largest weight.
	DupKeepMax
	// DupSum adds weights (natural for the Normalized variant, where edge
	// weights are disjoint-event probabilities).
	DupSum
	// DupCombine combines weights as independent events,
	// w = 1-(1-w1)(1-w2) (natural for the Independent variant).
	DupCombine
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// The zero value is ready to use. Builders are not safe for concurrent use.
type Builder struct {
	weights []float64
	labels  []string
	byName  map[string]int32
	edges   []Edge
	err     error
}

// NewBuilder returns a Builder preallocated for the given node and edge
// counts (either may be zero).
func NewBuilder(nodeHint, edgeHint int) *Builder {
	return &Builder{
		weights: make([]float64, 0, nodeHint),
		edges:   make([]Edge, 0, edgeHint),
	}
}

// Err returns the first error recorded by any Add call, if any. Build also
// returns it, so checking Err between calls is optional.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// AddNode appends an unlabeled node with weight w and returns its id.
func (b *Builder) AddNode(w float64) int32 {
	id := int32(len(b.weights))
	b.weights = append(b.weights, w)
	if b.byName != nil {
		b.labels = append(b.labels, "")
		b.fail(fmt.Errorf("graph: mixing labeled and unlabeled nodes (node %d)", id))
	}
	return id
}

// AddLabeledNode appends a node with a unique label and weight w.
func (b *Builder) AddLabeledNode(label string, w float64) int32 {
	if b.byName == nil {
		if len(b.weights) > 0 {
			b.fail(fmt.Errorf("graph: mixing labeled and unlabeled nodes (label %q)", label))
		}
		b.byName = make(map[string]int32, cap(b.weights))
	}
	if prev, dup := b.byName[label]; dup {
		b.fail(fmt.Errorf("graph: duplicate node label %q (node %d)", label, prev))
		return prev
	}
	id := int32(len(b.weights))
	b.weights = append(b.weights, w)
	b.labels = append(b.labels, label)
	b.byName[label] = id
	return id
}

// Node returns the id for label, creating the node with weight 0 if absent.
// Useful for incremental construction where weights are set afterwards.
func (b *Builder) Node(label string) int32 {
	if b.byName != nil {
		if id, ok := b.byName[label]; ok {
			return id
		}
	}
	return b.AddLabeledNode(label, 0)
}

// SetWeight overwrites the weight of node v.
func (b *Builder) SetWeight(v int32, w float64) {
	if v < 0 || int(v) >= len(b.weights) {
		b.fail(fmt.Errorf("graph: SetWeight on unknown node %d", v))
		return
	}
	b.weights[v] = w
}

// AddWeight adds delta to the weight of node v.
func (b *Builder) AddWeight(v int32, delta float64) {
	if v < 0 || int(v) >= len(b.weights) {
		b.fail(fmt.Errorf("graph: AddWeight on unknown node %d", v))
		return
	}
	b.weights[v] += delta
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.weights) }

// AddEdge appends the directed edge (src,dst) with weight w.
func (b *Builder) AddEdge(src, dst int32, w float64) {
	n := int32(len(b.weights))
	if src < 0 || src >= n || dst < 0 || dst >= n {
		b.fail(fmt.Errorf("graph: edge (%d,%d) references unknown node (have %d nodes)", src, dst, n))
		return
	}
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, W: w})
}

// AddLabeledEdge appends an edge between two labeled nodes, creating the
// nodes (with weight 0) if they do not exist yet.
func (b *Builder) AddLabeledEdge(src, dst string, w float64) {
	b.AddEdge(b.Node(src), b.Node(dst), w)
}

// BuildOptions controls Build.
type BuildOptions struct {
	// Duplicates selects the duplicate-edge policy. Default DupError.
	Duplicates DuplicatePolicy
	// NormalizeWeights rescales node weights to sum to 1. Build fails if
	// the current sum is 0.
	NormalizeWeights bool
	// DropZeroEdges silently discards edges with weight <= 0 instead of
	// failing validation later. Clickstream adaptation can produce zero
	// counts that should simply mean "no edge".
	DropZeroEdges bool
}

// Build finalizes the graph. The Builder can be reused afterwards only by
// discarding it; Build hands its internal slices to the Graph.
func (b *Builder) Build(opts BuildOptions) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.weights)
	if n == 0 {
		return nil, errors.New("graph: cannot build an empty graph")
	}
	if opts.NormalizeWeights {
		var sum float64
		for _, w := range b.weights {
			sum += w
		}
		if sum <= 0 || math.IsNaN(sum) {
			return nil, fmt.Errorf("graph: cannot normalize node weights with sum %g", sum)
		}
		for i := range b.weights {
			b.weights[i] /= sum
		}
	}

	edges := b.edges
	if opts.DropZeroEdges {
		kept := edges[:0]
		for _, e := range edges {
			if e.W > 0 {
				kept = append(kept, e)
			}
		}
		edges = kept
	}
	// The codecs and WriteJSON list edges in (src, dst) order already, and
	// a sort of distinct, ordered keys is the identity, so it is skipped.
	if !edgesOrdered(edges) {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Src != edges[j].Src {
				return edges[i].Src < edges[j].Src
			}
			return edges[i].Dst < edges[j].Dst
		})
	}
	deduped, err := dedupEdges(edges, opts.Duplicates)
	if err != nil {
		return nil, err
	}

	g := &Graph{
		nodeW:  b.weights,
		labels: b.labels,
		byName: b.byName,
	}
	g.outStart, g.outDst, g.outW = buildCSR(n, deduped)
	g.buildIncoming()
	return g, nil
}

// edgesOrdered reports whether edges are strictly increasing by (src, dst).
func edgesOrdered(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.Src > b.Src || a.Src == b.Src && a.Dst >= b.Dst {
			return false
		}
	}
	return true
}

// dedupEdges assumes edges sorted by (src,dst) and applies the policy
// in place, returning the compacted slice.
func dedupEdges(edges []Edge, policy DuplicatePolicy) ([]Edge, error) {
	if len(edges) == 0 {
		return edges, nil
	}
	out := edges[:1]
	for _, e := range edges[1:] {
		last := &out[len(out)-1]
		if e.Src != last.Src || e.Dst != last.Dst {
			out = append(out, e)
			continue
		}
		switch policy {
		case DupError:
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", e.Src, e.Dst)
		case DupKeepMax:
			if e.W > last.W {
				last.W = e.W
			}
		case DupSum:
			last.W += e.W
		case DupCombine:
			last.W = 1 - (1-last.W)*(1-e.W)
		default:
			return nil, fmt.Errorf("graph: unknown duplicate policy %d", policy)
		}
	}
	return out, nil
}

// buildCSR lays out edges, sorted by (src, dst), as the outgoing CSR.
func buildCSR(n int, edges []Edge) ([]int64, []int32, []float64) {
	start := make([]int64, n+1)
	dst := make([]int32, len(edges))
	w := make([]float64, len(edges))
	for i, e := range edges {
		start[e.Src+1]++
		dst[i] = e.Dst
		w[i] = e.W
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	return start, dst, w
}

// buildIncoming lays out the incoming CSR from the outgoing one by
// counting placement: a count per destination, prefix sums, then one pass
// over the out-edges in source order, so each node's in-edges come out
// sorted by source without a sort.
func (g *Graph) buildIncoming() {
	n := g.NumNodes()
	m := len(g.outDst)
	g.inStart = make([]int64, n+1)
	g.inSrc = make([]int32, m)
	g.inW = make([]float64, m)
	for _, d := range g.outDst {
		g.inStart[d+1]++
	}
	for i := 1; i <= n; i++ {
		g.inStart[i] += g.inStart[i-1]
	}
	next := make([]int64, n)
	copy(next, g.inStart[:n])
	for v := int32(0); v < int32(n); v++ {
		lo, hi := g.outStart[v], g.outStart[v+1]
		for i := lo; i < hi; i++ {
			d := g.outDst[i]
			pos := next[d]
			next[d]++
			g.inSrc[pos] = v
			g.inW[pos] = g.outW[i]
		}
	}
}
