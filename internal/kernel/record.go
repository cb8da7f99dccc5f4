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
// allocations proportional to the graph. An idle set is clean: covered is
// +0, liveW the node weights and both bitsets empty, as when allocated.
type buffers struct {
	covered  []float64
	liveW    []float64
	retained []uint64
	touched  []uint64  // State.Touched's marks, empty between calls
	entries  []entry   // picker heap backing array, len 0, cap n; nil until a picker needs it
	scratch  []float64 // per-node gain staging for the chunk-parallel build
}

// bytes is the set's size: about 24 bytes a node, 40 once a picker has run.
func (b *buffers) bytes() int64 {
	return 8*int64(cap(b.covered)+cap(b.liveW)+cap(b.retained)+cap(b.touched)+cap(b.scratch)) +
		int64(unsafe.Sizeof(entry{}))*int64(cap(b.entries))
}

// Template is a graph's coverage report at S = {}, formatted once: each
// node's ItemCoverage with I = 0, that is 0, or 1 when W(v) = 0, followed
// by a comma, in id order. Under any S only the nodes State.Touched lists
// read otherwise, so an encoder copies the spans between them.
type Template struct {
	text []byte
	// at[v] is where node v's text starts, at[n] = len(text); nil when
	// every text is one byte, so that v starts at 2v. A node of negative
	// weight reads -0, for one.
	at []int32
}

// Span returns the text of nodes a through b-1.
func (t *Template) Span(a, b int32) []byte {
	if t.at == nil {
		return t.text[2*int(a) : 2*int(b)]
	}
	return t.text[t.at[a]:t.at[b]]
}

// record is the kernel's state derived from one graph value, kept in the
// graph's derived slot so it lives and dies with the graph: the base heaps,
// the idle buffer sets, kept clean so that they carry the graph's weights
// from one State to the next, and the coverage Template. Solves of other
// graphs, even of the same node count, never see it.
type record struct {
	w     []float64    // the graph's node weights, an idle set's liveW
	held  atomic.Int64 // bytes of the buffer sets lent out or idle
	heaps atomic.Int64 // bytes of base
	texts atomic.Int64 // bytes of tmpl
	once  sync.Once    // builds tmpl
	tmpl  *Template
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
	return graph.Derived(g, func() any { return &record{w: g.NodeWeights()} }).(*record)
}

// CoverageTemplate returns g's Template. The graph's first call builds it
// with format, the encoding of one value; later calls return that one.
func CoverageTemplate(g *graph.Graph, format func(dst []byte, f float64) []byte) *Template {
	r := recordOf(g)
	r.once.Do(func() {
		t := &Template{text: make([]byte, 0, 2*len(r.w))}
		for _, w := range r.w {
			t.text = append(format(t.text, itemCoverage(0, w)), ',')
		}
		if len(t.text) > 2*len(r.w) { // no text is empty, so one is wider than a byte
			t.at = make([]int32, 1, len(r.w)+1)
			for i, c := range t.text {
				if c == ',' {
					t.at = append(t.at, int32(i+1))
				}
			}
		}
		r.tmpl = t
		r.texts.Store(int64(cap(t.text)) + 4*int64(cap(t.at)))
	})
	return r.tmpl
}

// acquire returns clean storage for a State: an idle set if there is one,
// else a new set.
func (r *record) acquire() *buffers {
	r.mu.Lock()
	r.taken = true
	var buf *buffers
	if k := len(r.free); k > 0 {
		buf, r.free = r.free[k-1], r.free[:k-1]
	}
	r.mu.Unlock()
	if buf == nil {
		n := len(r.w)
		buf = &buffers{covered: alignedFloats(n), liveW: alignedFloats(n), retained: make([]uint64, (n+63)/64),
			touched: make([]uint64, (n+63)/64), scratch: make([]float64, n)}
		copy(buf.liveW, r.w)
		r.held.Add(buf.bytes())
	}
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

// TemplateBytes sums the graphs' coverage templates, about 2 bytes a node
// for each graph that has been given one.
func TemplateBytes(gs ...*graph.Graph) (n int64) {
	for _, g := range gs {
		if r, ok := graph.Derived(g, nil).(*record); ok {
			n += r.texts.Load()
		}
	}
	return n
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
