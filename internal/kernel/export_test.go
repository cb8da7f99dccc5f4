package kernel

import "prefcover/internal/graph"

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

// FanOut exposes the worker-count clamp of the chunk-parallel gain fill.
var FanOut = fanOut
