package kernel

import (
	"context"
	"unsafe"
)

// entry is one lazy-heap candidate. The backing array is flat and reused;
// sift operations move 16-byte values, never pointers, and no interface
// boxing occurs anywhere on the pick path.
type entry struct {
	// key is an admissible upper bound on the candidate's current marginal
	// gain; equal to the exact gain when round is current.
	key float64
	v   int32
	// round is the |S| at which key was computed. Entries seeded from the
	// memoized S = {} prefix carry round 0, so under a pinned set they are
	// stale from birth, still admissible by submodularity.
	round int32
}

// entryLess orders the max-heap by (key desc, id asc), so tie-breaks match
// the scan strategies: among equal gains the smallest id surfaces first.
func entryLess(a, b entry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.v < b.v
}

// siftDown restores the heap property below i. Manual and monomorphic: no
// heap.Interface indirection, no bounds checks beyond the slice's own.
func siftDown(h []entry, i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		best := left
		if right := left + 1; right < n && entryLess(h[right], h[left]) {
			best = right
		}
		if !entryLess(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// heapify builds the heap in O(n) (Floyd's bottom-up construction).
func heapify(h []entry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// Picker is the data-oriented CELF picker (Leskovec et al. 2007), sound
// because C is monotone submodular in both variants: a gain computed at an
// earlier round only overestimates the current one, so stale tops are
// re-evaluated exactly and a fresh top is the true argmax.
//
// Selection is byte-identical to every other strategy: keys are always
// admissible upper bounds, the heap order (key desc, id asc) is a strict
// total order, and a candidate is returned only when its key is its exact
// gain at the current round — so the argmax and its tie-break match the
// literal scan, whatever the heap's array layout.
type Picker struct {
	ctx context.Context
	st  *State
	h   []entry

	// evals counts exact Gain evaluations (build + refreshes): the
	// solver-level work measure, diffed into Solution.GainEvals.
	evals int64
	// reevals counts stale-top refreshes, the heap-churn measure reported
	// as ProgressEvent.Reevaluated.
	reevals int64

	// buildErr is set when the context fired during the heap build; the
	// first Pick surfaces it instead of a selection.
	buildErr error
}

// NewPicker builds the lazy heap for the state's current retained set.
// workers sizes the chunk-parallel gain evaluation on a cold build
// (<= 0 means GOMAXPROCS). The heap storage comes from the state's
// buffers, so construction allocates nothing in steady state.
//
// Builds are cold only once per (graph, variant): the S = {} heap is
// memoized on the graph's record, and later builds copy it — verbatim when
// nothing is pinned; otherwise minus the pinned nodes and re-heapified, its
// keys then stale but admissible bounds.
func NewPicker(ctx context.Context, st *State, workers int) *Picker {
	p := &Picker{ctx: ctx, st: st}
	n := st.g.NumNodes()
	rec := recordOf(st.g)
	if st.buf.entries == nil {
		// Allocated on first use: states that only replay never need it.
		st.buf.entries = make([]entry, 0, n)
		rec.held.Add(int64(unsafe.Sizeof(entry{})) * int64(n))
	}
	entries := st.buf.entries[:0]
	base := rec.baseHeap(st.variant, nil)
	switch {
	case base == nil:
		scratch := st.buf.scratch
		if err := parallelGains(ctx, st, scratch, workers); err != nil {
			p.buildErr = err
			return p
		}
		p.evals += int64(n - st.size)
		round := int32(st.size)
		for v := int32(0); v < int32(n); v++ {
			if st.Retained(v) {
				continue
			}
			entries = append(entries, entry{key: scratch[v], v: v, round: round})
		}
		heapify(entries)
		if st.size == 0 {
			rec.baseHeap(st.variant, append([]entry(nil), entries...))
		}
	case st.size == 0:
		// Cache hit, nothing pinned: the memoized heap is exactly the heap
		// this build would produce (exact fresh gains at round 0), so the
		// whole construction is one copy into the state's backing array.
		if err := ctxErr(ctx); err != nil {
			p.buildErr = err
			return p
		}
		entries = append(entries, base...)
	default:
		// Cache hit under pins: zero gain evaluations, but retained nodes
		// must be excluded, so copy the rest and re-heapify. Their round-0
		// keys are stale upper bounds the pick loop refreshes lazily.
		for i, e := range base {
			if i%cancelCheckStride == 0 {
				if err := ctxErr(ctx); err != nil {
					p.buildErr = err
					return p
				}
			}
			if !st.Retained(e.v) {
				entries = append(entries, e)
			}
		}
		heapify(entries)
	}
	p.h = entries
	return p
}

// Evals returns the cumulative exact-gain evaluation count (build + picks).
func (p *Picker) Evals() int64 { return p.evals }

// Reevals returns the cumulative stale-top refresh count.
func (p *Picker) Reevals() int64 { return p.reevals }

// Pick returns the exact argmax candidate for the current round, with the
// next heap key as the admissible remaining-gain bound.
func (p *Picker) Pick() (v int32, gain, bound float64, ok bool, err error) {
	if p.buildErr != nil {
		return 0, 0, 0, false, p.buildErr
	}
	round := int32(p.st.size)
	for steps := 0; len(p.h) > 0; steps++ {
		if steps%cancelCheckStride == 0 {
			if err := ctxErr(p.ctx); err != nil {
				// Abandon the pick: refreshed keys already sifted back stay
				// admissible, so the selected prefix remains deterministic.
				return 0, 0, 0, false, err
			}
		}
		top := &p.h[0]
		if top.round != round {
			// Stale: recompute exactly and let it sink to its place.
			top.key = p.st.Gain(top.v)
			top.round = round
			p.evals++
			p.reevals++
			siftDown(p.h, 0)
			continue
		}
		// True argmax: every other key is an admissible upper bound on its
		// own gain and sorts below this exact value.
		e := *top
		last := len(p.h) - 1
		p.h[0] = p.h[last]
		p.h = p.h[:last]
		if last > 0 {
			siftDown(p.h, 0)
		}
		bound := 0.0
		if len(p.h) > 0 {
			bound = p.h[0].key
		}
		return e.v, e.key, bound, true, nil
	}
	return 0, 0, 0, false, nil
}
