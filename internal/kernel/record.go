package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"prefcover/internal/graph"
)

// buffers is the backing storage for one State plus the picker heap that
// runs on top of it. Everything is sized once for its graph and reused
// across solves, so the steady-state solver hot path performs no heap
// allocations proportional to the graph.
type buffers struct {
	covered  []float64
	liveW    []float64
	retained []uint64
	entries  []entry   // picker heap backing array, len 0, cap n; nil until a picker needs it
	scratch  []float64 // per-node gain staging for the chunk-parallel build
}

// bytes is the set's size: 24 bytes a node, 40 once a picker has run.
func (b *buffers) bytes() int64 {
	return 8*int64(cap(b.covered)+cap(b.liveW)+cap(b.retained)+cap(b.scratch)) +
		int64(unsafe.Sizeof(entry{}))*int64(cap(b.entries))
}

// record is the kernel's state derived from one graph value, kept in the
// graph's derived slot so it lives and dies with the graph. Solves of other
// graphs, even of the same node count, never see it.
type record struct {
	n     int
	held  atomic.Int64 // bytes of the buffer sets lent out or idle
	heaps atomic.Int64 // bytes of base
	mu    sync.Mutex
	// base is the S = {} heap per variant: exact empty-set gains,
	// heapified, every entry at round 0. By submodularity its keys bound
	// the gains under any retained set, so it seeds every later heap with
	// zero gain evaluations, verbatim (one memcpy) when nothing is pinned.
	// Set once, by the first unpinned build; readers copy it.
	base  [2][]entry
	free  []*buffers // idle sets sized for the graph, at most GOMAXPROCS
	taken bool       // a State took a set since the last trim
	timed bool       // a trim is due after the next GC cycle
}

// trimmer's finalizer runs trim once a GC cycle has found it garbage.
type trimmer struct{ r *record }

// trim runs after each GC cycle while sets are idle and, as sync.Pool
// drops its victims, drops them if no State took a set during the cycle:
// a graph no longer solved keeps no buffers, a busy one keeps its sets.
func (t *trimmer) trim() {
	r := t.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.taken {
		for _, b := range r.free {
			r.held.Add(-b.bytes())
		}
		r.free = nil
	}
	r.taken, r.timed = false, false
	r.trimLater()
}

// trimLater has the next GC cycle run trim if sets are idle and no trim is
// due. Callers hold r.mu.
func (r *record) trimLater() {
	if !r.timed && len(r.free) > 0 {
		r.timed = true
		runtime.SetFinalizer(&trimmer{r}, (*trimmer).trim)
	}
}

// recordOf returns g's record, creating it on the graph's first State.
func recordOf(g *graph.Graph) *record {
	return graph.Derived(g, func() any { return &record{n: g.NumNodes()} }).(*record)
}

// acquire returns zeroed storage for a State: an idle set if there is one.
func (r *record) acquire() *buffers {
	r.mu.Lock()
	r.taken = true
	var buf *buffers
	if k := len(r.free); k > 0 {
		buf, r.free = r.free[k-1], r.free[:k-1]
	}
	r.mu.Unlock()
	if buf == nil {
		buf = &buffers{covered: alignedFloats(r.n), liveW: alignedFloats(r.n),
			retained: make([]uint64, (r.n+63)/64), scratch: make([]float64, r.n)}
		r.held.Add(buf.bytes())
		return buf
	}
	clear(buf.covered)
	clear(buf.retained)
	return buf
}

// release keeps buf for the next State unless GOMAXPROCS sets, one per
// processor that could run a solve, are idle already.
func (r *record) release(buf *buffers) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free) >= runtime.GOMAXPROCS(0) {
		r.held.Add(-buf.bytes())
		return
	}
	r.free = append(r.free, buf)
	r.trimLater()
}

// baseHeap returns the variant's S = {} heap, first storing build when it
// is non-nil and no heap is stored yet.
func (r *record) baseHeap(variant graph.Variant, build []entry) []entry {
	i := 0 // the kernel solves every variant but Normalized as Independent
	if variant == graph.Normalized {
		i = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.base[i] == nil && build != nil {
		r.base[i] = build
		r.heaps.Add(int64(unsafe.Sizeof(entry{})) * int64(cap(build)))
	}
	return r.base[i]
}

// DerivedBytes sums what the kernel keeps for the graphs, by kind: their
// S = {} heaps, 16 bytes a node, and their buffer sets, lent out or idle,
// about 40 bytes a node each. A graph never solved adds nothing.
func DerivedBytes(gs ...*graph.Graph) (baseHeap, buffers int64) {
	for _, g := range gs {
		if r, ok := graph.Derived(g, nil).(*record); ok {
			baseHeap += r.heaps.Load()
			buffers += r.held.Load()
		}
	}
	return baseHeap, buffers
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
