package kernel

import (
	"fmt"
	"math"

	"prefcover/internal/graph"
)

// Memoized reports whether the base heap is memoized on g under variant.
// Exported for the external kernel_test package, whose tests drive the memo
// through greedy, which imports kernel.
func Memoized(g *graph.Graph, variant graph.Variant) bool {
	r, _ := graph.Derived(g, nil).(*record)
	return r != nil && r.baseHeap(variant, nil) != nil
}

// BufferSet identifies the buffer set st holds (nil after Release).
func BufferSet(st *State) any { return st.buf }

// IdleBufferSets identifies the sets g's record keeps idle.
func IdleBufferSets(g *graph.Graph) []any {
	r, _ := graph.Derived(g, nil).(*record)
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]any, len(r.free))
	for i, b := range r.free {
		out[i] = b
	}
	return out
}

// DirtyIdleSet describes the first way an idle set of g differs, bit for
// bit, from a newly allocated one — covered +0, liveW the node weights, no
// retained or touched bit — or returns "" when every idle set is clean.
func DirtyIdleSet(g *graph.Graph) string {
	w := g.NodeWeights()
	for i, set := range IdleBufferSets(g) {
		b := set.(*buffers)
		for v := range w {
			if math.Float64bits(b.covered[v]) != 0 || math.Float64bits(b.liveW[v]) != math.Float64bits(w[v]) {
				return fmt.Sprintf("idle set %d: node %d has covered %v, liveW %v (W %v)", i, v, b.covered[v], b.liveW[v], w[v])
			}
		}
		for j := range b.retained {
			if b.retained[j] != 0 || b.touched[j] != 0 {
				return fmt.Sprintf("idle set %d: bitset word %d retained %#x, touched %#x", i, j, b.retained[j], b.touched[j])
			}
		}
	}
	return ""
}

// Walks reports whether st's Release restores only what Add wrote, rather
// than resetting the whole set.
func Walks(st *State) bool { return 8*st.added <= len(st.nodeW) }

// Coverage returns ItemCoverage for every node: the dense report
// greedy.Solution.Coverage holds.
func (s *State) Coverage() []float64 {
	out := make([]float64, s.g.NumNodes())
	for v := range out {
		out[v] = s.ItemCoverage(int32(v))
	}
	return out
}

// FanOut exposes the worker-count clamp of the chunk-parallel gain fill.
var FanOut = fanOut
