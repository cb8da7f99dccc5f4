// Package kernel is the data-oriented rewrite of the solver hot path: flat
// coverage state (a []uint64 retained bitset and cache-aligned I arrays),
// an allocation-free lazy heap pooled by graph size, chunk-parallel gain
// evaluation, and succinct per-node coverage sketches whose certified upper
// bounds let the lazy picker skip most exact Gain recomputations.
//
// Every kernel is numerically bit-identical to cover.Engine: the gain and
// add loops use textually identical floating-point expressions in the same
// order, with retained neighbors contributing exactly +0.0 instead of being
// skipped (retained u has I[u] == W(u) exactly, so the branch-free term is
// a true zero and IEEE addition of +0.0 leaves every sum unchanged). The
// differential suite in this package holds that property across strategies,
// variants, and pinned sets.
package kernel

import (
	"prefcover/internal/cover"
	"prefcover/internal/graph"
)

// State is the flat counterpart of cover.Engine: same semantics, pointer-
// free hot loops, pooled backing storage. Like the Engine, a State is not
// safe for concurrent mutation, but Gain is read-only and may be called
// from multiple goroutines between Add calls.
type State struct {
	g       *graph.Graph
	variant graph.Variant

	// Raw CSR views of the graph's reverse adjacency, hoisted out of the
	// Graph so the inner loops index flat arrays only.
	nodeW   []float64
	inStart []int64
	inSrc   []int32
	inW     []float64

	retained []uint64  // membership bitset, one bit per node
	covered  []float64 // the paper's I array, cache-aligned
	// liveW[u] is W(u) while u is outside S and exactly 0 afterwards; the
	// Normalized gain/add loops multiply by it instead of branching on the
	// retained bit, which keeps the inner loop free of unpredictable
	// branches without changing any rounded result.
	liveW []float64

	total float64 // C(S)
	size  int     // |S|

	buf *buffers // pooled backing storage; nil after Release
}

// NewState acquires pooled storage for g and returns a State with S = {}.
// Call Release when done to return the storage to the per-size pool.
func NewState(g *graph.Graph, variant graph.Variant) *State {
	n := g.NumNodes()
	buf := acquireBuffers(n)
	st := &State{
		g:        g,
		variant:  variant,
		nodeW:    g.NodeWeights(),
		retained: buf.retained,
		covered:  buf.covered,
		liveW:    buf.liveW,
		buf:      buf,
	}
	st.inStart, st.inSrc, st.inW = g.InCSR()
	copy(st.liveW, st.nodeW)
	return st
}

// Replay returns a State holding S = order, reached by adding order's items
// in sequence. That is the Add sequence of the solve that selected order
// (pins first, then picks), and by the ordered-prefix property also of the
// solve at any shorter budget, so every I[v] — and with it Coverage — is
// bit-identical to that solve's final state. It costs O(n) plus the
// in-degrees of order, on pooled storage; order must hold valid node ids.
// Call Release when done.
func Replay(g *graph.Graph, variant graph.Variant, order []int32) *State {
	st := NewState(g, variant)
	for _, v := range order {
		st.Add(v)
	}
	return st
}

// Coverage returns ItemCoverage for every node: the I[v]/W(v) report that
// greedy.Solution.Coverage holds. The slice is the State's pooled scratch
// storage, valid until the next Coverage, ScanPick or NewPicker on this
// State or its Release.
func (s *State) Coverage() []float64 {
	out := s.buf.scratch
	for v := range out {
		out[v] = s.ItemCoverage(int32(v))
	}
	return out
}

// Release returns the State's backing storage to the pool. The State must
// not be used afterwards.
func (s *State) Release() {
	if s.buf == nil {
		return
	}
	releaseBuffers(len(s.covered), s.buf)
	s.buf, s.retained, s.covered, s.liveW = nil, nil, nil, nil
}

// Graph returns the underlying graph.
func (s *State) Graph() *graph.Graph { return s.g }

// Variant returns the state's variant.
func (s *State) Variant() graph.Variant { return s.variant }

// Cover returns C(S) for the current retained set.
func (s *State) Cover() float64 { return s.total }

// Size returns |S|.
func (s *State) Size() int { return s.size }

// Retained reports whether v is in S.
func (s *State) Retained(v int32) bool {
	return s.retained[uint32(v)>>6]&(1<<(uint32(v)&63)) != 0
}

func (s *State) setRetained(v int32) {
	s.retained[uint32(v)>>6] |= 1 << (uint32(v) & 63)
}

// CoveredWeight returns I[v].
func (s *State) CoveredWeight(v int32) float64 { return s.covered[v] }

// ItemCoverage returns I[v]/W(v) with the same clamping as
// cover.Engine.ItemCoverage.
func (s *State) ItemCoverage(v int32) float64 {
	w := s.nodeW[v]
	if w == 0 {
		return 1
	}
	return cover.ClampCoverage(s.covered[v] / w)
}

// Gain returns the marginal gain of adding v to S. It computes the same
// IEEE result as cover.Engine.Gain: identical expressions in identical
// order, with retained in-neighbors contributing W(u)-I[u] == +0.0
// (Independent) or liveW[u] == 0 (Normalized) instead of a branch.
func (s *State) Gain(v int32) float64 {
	if s.Retained(v) {
		return 0
	}
	lo, hi := s.inStart[v], s.inStart[v+1]
	srcs := s.inSrc[lo:hi]
	ws := s.inW[lo:hi]
	g := s.nodeW[v] - s.covered[v]
	switch s.variant {
	case graph.Normalized:
		liveW := s.liveW
		for i, u := range srcs {
			if u == v {
				continue // self-loop: v covers itself fully via the first term
			}
			g += liveW[u] * ws[i]
		}
	default: // graph.Independent
		nodeW, covered := s.nodeW, s.covered
		for i, u := range srcs {
			if u == v {
				continue
			}
			g += ws[i] * (nodeW[u] - covered[u])
		}
	}
	return g
}

// Add commits v into S and returns the realized gain, bit-identical to
// cover.Engine.Add. The inner loops are fully branch-free: I[v] and
// liveW[v] are zeroed/satisfied before the scan, so self-loop and retained
// terms are exact +0.0 and both the per-neighbor update and the delta
// accumulation round identically to the Engine's skip-based loop.
func (s *State) Add(v int32) float64 {
	if s.Retained(v) {
		return 0
	}
	s.setRetained(v)
	s.size++
	delta := s.nodeW[v] - s.covered[v]
	s.covered[v] = s.nodeW[v]
	s.liveW[v] = 0
	lo, hi := s.inStart[v], s.inStart[v+1]
	srcs := s.inSrc[lo:hi]
	ws := s.inW[lo:hi]
	switch s.variant {
	case graph.Normalized:
		liveW, covered := s.liveW, s.covered
		for i, u := range srcs {
			d := liveW[u] * ws[i]
			covered[u] += d
			delta += d
		}
	default: // graph.Independent
		nodeW, covered := s.nodeW, s.covered
		for i, u := range srcs {
			d := ws[i] * (nodeW[u] - covered[u])
			covered[u] += d
			delta += d
		}
	}
	s.total += delta
	return delta
}
