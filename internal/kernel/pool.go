package kernel

import (
	"sync"
	"unsafe"

	"prefcover/internal/graph"
)

// buffers is the pooled backing storage for one State plus the picker heap
// that runs on top of it. Everything is sized once for a given node count
// and reused across solves, so the steady-state solver hot path performs no
// heap allocations proportional to the graph.
type buffers struct {
	covered  []float64
	liveW    []float64
	retained []uint64
	entries  []entry   // picker heap backing array, len 0, cap n; nil until a picker needs it
	scratch  []float64 // per-node gain staging for the chunk-parallel build
}

// bufPools maps a node count to a *sync.Pool of *buffers for that exact
// size. Solves against the same graph (the common serving pattern: one
// registry graph, many solve requests) hit the same pool entry.
var bufPools sync.Map

func poolFor(n int) *sync.Pool {
	if p, ok := bufPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := bufPools.LoadOrStore(n, &sync.Pool{New: func() interface{} {
		return &buffers{
			covered:  alignedFloats(n),
			liveW:    alignedFloats(n),
			retained: make([]uint64, (n+63)/64),
			scratch:  make([]float64, n),
		}
	}})
	return p.(*sync.Pool)
}

// acquireBuffers returns zeroed storage for an n-node state.
func acquireBuffers(n int) *buffers {
	buf := poolFor(n).Get().(*buffers)
	clear(buf.covered)
	clear(buf.retained)
	buf.entries = buf.entries[:0]
	return buf
}

func releaseBuffers(n int, buf *buffers) {
	poolFor(n).Put(buf)
}

// cacheLine is the alignment target for the hot flat arrays. 64 bytes is
// the line size on every amd64/arm64 part this runs on.
const cacheLine = 64

// alignedFloats returns a length-n float64 slice whose first element sits
// on a cache-line boundary, so sequential scans of the covered/liveW arrays
// load whole lines and chunk-parallel workers touching adjacent stripes
// false-share at most one boundary line.
func alignedFloats(n int) []float64 {
	raw := make([]float64, n+cacheLine/8)
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(raw)))
	off := 0
	if rem := addr % cacheLine; rem != 0 {
		off = int((cacheLine - rem) / 8)
	}
	return raw[off : off+n : off+n]
}

// baseGainsKey and sketchKey are the graph.Memo keys under which a
// variant's base gains and sketch are memoized on their graph, so each
// lives exactly as long as the graph it was derived from.
type (
	baseGainsKey graph.Variant
	sketchKey    graph.Variant
)

// baseGains is the memoized S = {} solve prefix for one (graph, variant):
// the exact empty-set gain vector and the already-heapified lazy heap built
// from it. By submodularity the gains are valid stale upper bounds for any
// retained set, so a cache hit seeds a lazy heap with zero gain
// evaluations — and with no pins the heap itself is reused verbatim,
// turning steady-state heap builds from O(E) gain evaluations plus an O(n)
// heapify into a single memcpy.
type baseGains struct {
	gains []float64
	heap  []entry // heapified, round 0, exact; callers must copy before mutating
}

// cachedBaseGains returns the memoized S = {} solve prefix, or nil on miss.
func cachedBaseGains(g *graph.Graph, variant graph.Variant) *baseGains {
	if v, ok := graph.Memo(g, baseGainsKey(variant)); ok {
		return v.(*baseGains)
	}
	return nil
}

func storeBaseGains(g *graph.Graph, variant graph.Variant, bg *baseGains) {
	graph.SetMemo(g, baseGainsKey(variant), bg)
}
