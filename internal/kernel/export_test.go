package kernel

import "prefcover/internal/graph"

// Memoized reports whether the base heap is memoized on g under variant.
// Exported for the external kernel_test package, whose tests drive the memo
// through greedy, which imports kernel.
func Memoized(g *graph.Graph, variant graph.Variant) bool {
	_, ok := graph.Memo(g, baseHeapKey(variant))
	return ok
}

// FanOut exposes the worker-count clamp of the chunk-parallel gain fill.
var FanOut = fanOut
