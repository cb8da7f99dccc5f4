// Package kernel is the one incremental engine every production solve runs
// on: flat coverage state (a []uint64 retained bitset and cache-aligned I
// arrays), an allocation-free lazy heap seeded from a memoized empty-set
// heap, and chunk-parallel gain evaluation. The heaps, the reused buffer
// sets and the encoded empty-set coverage report live on one record per
// graph value, collected with the graph. A buffer set goes back clean, so
// a State costs O(|S| + Σ d_in(S)), not O(n), beyond its picks. The greedy
// strategies (scan, parallel, lazy, stochastic), quota.Solve and the
// budgeted passes all drive a State.
//
// Every kernel is numerically bit-identical to cover.Engine, the test
// reference for the paper's Algorithms 2–5: the gain and add loops use
// textually identical floating-point expressions in the same order, with
// retained neighbors contributing exactly +0.0 instead of being skipped
// (retained u has I[u] == W(u) exactly, so the branch-free term is a true
// zero and IEEE addition of +0.0 leaves every sum unchanged). The
// differential suite in this package holds every strategy, variant and
// pinned set to a literal Algorithm 1 loop over cover.Engine.
package kernel

import (
	"math/bits"

	"prefcover/internal/cover"
	"prefcover/internal/graph"
)

// State is the flat counterpart of cover.Engine: same semantics, pointer-
// free hot loops, backing storage lent by its graph's record. Like the
// Engine, a State is not safe for concurrent mutation, but Gain is
// read-only and may be called from multiple goroutines between Add calls.
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
	added int     // |S| + Σ d_in(S): the entries Add wrote, which Release restores

	buf *buffers // backing storage lent by g's record; nil after Release
}

// NewState takes storage from g's record and returns a State with S = {},
// in O(1): the record lends only clean sets. Call Release when done to
// return the storage to the record.
func NewState(g *graph.Graph, variant graph.Variant) *State {
	buf := recordOf(g).acquire()
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
	return st
}

// Replay returns a State holding S = order, reached by adding order's items
// in sequence. That is the Add sequence of the solve that selected order
// (pins first, then picks), and by the ordered-prefix property also of the
// solve at any shorter budget, so every I[v] — and with it ItemCoverage — is
// bit-identical to that solve's final state. It costs O(|order| + Σ d_in
// over order), on lent storage; order must hold valid node ids. Call
// Release when done.
func Replay(g *graph.Graph, variant graph.Variant, order []int32) *State {
	st := NewState(g, variant)
	for _, v := range order {
		st.Add(v)
	}
	return st
}

// Touched calls fn once for every node whose I[v] Add may have written, S
// and its in-neighbours, in ascending id order. Every other node has I[v] =
// 0, its value at S = {}. It costs O(|S| + Σ d_in(S) + n/64).
func (s *State) Touched(fn func(v int32)) {
	mark := s.buf.touched
	eachBit(s.retained, func(v int32) {
		setBit(mark, v)
		for _, u := range s.inSrc[s.inStart[v]:s.inStart[v+1]] {
			setBit(mark, u)
		}
	})
	eachBit(mark, fn)
	clear(mark)
}

// Release restores the State's backing storage to S = {} and returns it to
// its graph's record; a second Release is a no-op. The State must not be
// used afterwards. The restore undoes Add's writes, found from the
// retained bitset and the in-CSR, unless they outnumber an eighth of the
// nodes: near there resetting the whole set in sequence costs less.
func (s *State) Release() {
	if s.buf == nil {
		return
	}
	if 8*s.added > len(s.nodeW) {
		clear(s.covered)
		copy(s.liveW, s.nodeW)
	} else {
		eachBit(s.retained, func(v int32) {
			s.covered[v], s.liveW[v] = 0, s.nodeW[v]
			for _, u := range s.inSrc[s.inStart[v]:s.inStart[v+1]] {
				s.covered[u] = 0
			}
		})
	}
	clear(s.retained)
	recordOf(s.g).release(s.buf)
	s.buf, s.retained, s.covered, s.liveW = nil, nil, nil, nil
}

// eachBit calls fn for every set bit of bs, in ascending order.
func eachBit(bs []uint64, fn func(v int32)) {
	for w, word := range bs {
		for ; word != 0; word &= word - 1 {
			fn(int32(w<<6 | bits.TrailingZeros64(word)))
		}
	}
}

func setBit(bs []uint64, v int32) { bs[uint32(v)>>6] |= 1 << (uint32(v) & 63) }

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

// CoveredWeight returns I[v].
func (s *State) CoveredWeight(v int32) float64 { return s.covered[v] }

// ItemCoverage returns I[v]/W(v) with the same clamping as
// cover.Engine.ItemCoverage.
func (s *State) ItemCoverage(v int32) float64 { return itemCoverage(s.covered[v], s.nodeW[v]) }

// itemCoverage is I/W for a node of weight w and covered weight i.
func itemCoverage(i, w float64) float64 {
	if w == 0 {
		return 1
	}
	return cover.ClampCoverage(i / w)
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
	setBit(s.retained, v)
	s.size++
	delta := s.nodeW[v] - s.covered[v]
	s.covered[v] = s.nodeW[v]
	s.liveW[v] = 0
	lo, hi := s.inStart[v], s.inStart[v+1]
	s.added += 1 + int(hi-lo)
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
