package kernel

import (
	"context"
)

// entry is one lazy-heap candidate. The backing array is flat and pooled;
// sift operations move 24-byte values, never pointers, and no interface
// boxing occurs anywhere on the pick path.
type entry struct {
	// key is an admissible upper bound on the candidate's current marginal
	// gain; equal to the exact gain when exact is set and round is current.
	key float64
	v   int32
	// round is the |S| at which key was computed; -1 marks entries seeded
	// from the cached S = {} gain vector under a pinned set (stale from
	// birth, still admissible by submodularity).
	round int32
	// exact distinguishes a key that is the true gain at its round from a
	// sketch upper bound; only exact fresh keys may be selected.
	exact bool
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
// earlier round only overestimates the current one. With a nil sketch it is
// the lazy strategy: stale tops are re-evaluated exactly. With a sketch,
// stale tops are first refreshed with the O(sketch) certified upper bound;
// the exact O(degree) Gain runs only when that bound still tops the heap —
// i.e. when the sketch cannot separate the leading candidates.
//
// Selection is byte-identical to every other strategy in both modes: keys
// are always admissible upper bounds, the heap order is (key desc, id asc),
// and a candidate is returned only when its key is its exact gain at the
// current round — so the argmax and its tie-break match the literal scan.
type Picker struct {
	ctx context.Context
	st  *State
	sk  *Sketch
	h   []entry

	// evals counts exact Gain evaluations (build + refreshes): the
	// solver-level work measure, diffed into Solution.GainEvals.
	evals int64
	// reevals counts stale-top refreshes of either kind (sketch bound or
	// exact), the heap-churn measure reported as ProgressEvent.Reevaluated.
	reevals int64

	// buildErr is set when the context fired during the heap build; the
	// first Pick surfaces it instead of a selection.
	buildErr error
}

// NewPicker builds the lazy heap for the state's current retained set.
// workers sizes the chunk-parallel gain evaluation on a cold build
// (<= 0 means GOMAXPROCS); sk == nil selects flat-lazy, otherwise the
// sketch-bounded picker. The heap storage comes from the state's pooled
// buffers, so construction allocates nothing in steady state.
//
// Builds are cold only once per (graph, variant): the S = {} gain vector is
// memoized, and later builds seed the heap from it — exact and fresh when
// nothing is pinned, stale-but-admissible bounds otherwise.
func NewPicker(ctx context.Context, st *State, workers int, sk *Sketch) *Picker {
	p := &Picker{ctx: ctx, st: st, sk: sk}
	n := st.g.NumNodes()
	if st.buf.entries == nil {
		// Allocated on first use: states that only replay never need it.
		st.buf.entries = make([]entry, 0, n)
	}
	entries := st.buf.entries[:0]
	round := int32(st.size)
	bg := cachedBaseGains(st.g, st.variant)
	if bg == nil {
		scratch := st.buf.scratch
		if err := parallelGains(ctx, st, scratch, workers); err != nil {
			p.buildErr = err
			return p
		}
		p.evals += int64(n - st.size)
		for v := int32(0); v < int32(n); v++ {
			if st.Retained(v) {
				continue
			}
			entries = append(entries, entry{key: scratch[v], v: v, round: round, exact: true})
		}
		heapify(entries)
		if st.size == 0 {
			gains := make([]float64, n)
			copy(gains, scratch)
			heap := make([]entry, len(entries))
			copy(heap, entries)
			storeBaseGains(st.g, st.variant, &baseGains{gains: gains, heap: heap})
		}
	} else if st.size == 0 {
		// Cache hit, nothing pinned: the memoized heap is exactly the heap
		// this build would produce (exact fresh gains at round 0), so the
		// whole construction is one copy into the pooled backing array.
		if err := ctxErr(ctx); err != nil {
			p.buildErr = err
			return p
		}
		entries = append(entries, bg.heap...)
	} else {
		// Cache hit under pins: zero gain evaluations, but retained nodes
		// must be excluded, so reseed from the gain vector — stale upper
		// bounds (round -1) the pick loop will refresh lazily.
		for v := int32(0); v < int32(n); v++ {
			if v%cancelCheckStride == 0 {
				if err := ctxErr(ctx); err != nil {
					p.buildErr = err
					return p
				}
			}
			if st.Retained(v) {
				continue
			}
			entries = append(entries, entry{key: bg.gains[v], v: v, round: -1, exact: true})
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
		switch {
		case top.round == round && top.exact:
			// True argmax: every other key is an admissible upper bound on
			// its own gain and sorts below this exact value.
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
		case top.round != round:
			// Stale. Flat-lazy recomputes exactly; the sketch picker first
			// tries the O(sketch) bound — keys only tighten (min of two
			// admissible bounds is admissible), so candidates the bound can
			// separate never pay the O(degree) exact evaluation.
			if p.sk != nil {
				if b := p.sk.Bound(p.st, top.v); b < top.key {
					top.key = b
				}
				top.exact = false
			} else {
				top.key = p.st.Gain(top.v)
				top.exact = true
				p.evals++
			}
			top.round = round
			p.reevals++
			siftDown(p.h, 0)
		default:
			// Fresh sketch bound still tops the heap: the sketch cannot
			// separate the leading candidates, so fall back to exact.
			top.key = p.st.Gain(top.v)
			top.exact = true
			p.evals++
			p.reevals++
			siftDown(p.h, 0)
		}
	}
	return 0, 0, 0, false, nil
}
