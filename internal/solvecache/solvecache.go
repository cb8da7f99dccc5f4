// Package solvecache caches greedy Preference Cover solutions for the
// serving layer, exploiting the property that makes the paper's greedy
// uniquely cacheable (§3.2, "Additional Advantages"): the solution is
// *ordered*, and the length-k' prefix of a budget-k solve IS the greedy
// solution for every budget k' ≤ k. One cached solve at the largest
// budget seen therefore answers every smaller-budget query in O(k')
// slicing — zero solver work — and, because the per-iteration cover
// values form a nondecreasing curve, answers threshold-mode (MinCover)
// queries by binary search over that curve. This is the same
// "precompute the permutation once, answer coverage queries cheaply"
// economics as succinct coverage oracles: an entry holds the permutation
// (order, gains, cover curve) and nothing sized by the graph, and the
// serving layer rebuilds a response's per-item coverage from the prefix.
//
// Entries are keyed by (graph content hash, variant, pinned prefix,
// strategy): the hash comes from internal/store, so replacing a graph's
// content automatically orphans its results; pins change the selection
// (they are force-retained first) and so partition the cache. Every
// deterministic strategy selects the identical order, so the server leaves
// the strategy empty and they share one lineage; only a randomized solver
// needs its own.
//
// The cache is bounded (entries and approximate bytes) by the serving
// layer's one LRU table (internal/lru), where Lookup, Do and Store count
// as use, and Do coalesces concurrent identical misses singleflight-style
// so a thundering herd of the same solve runs the solver exactly once.
package solvecache

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"prefcover/internal/graph"
	"prefcover/internal/greedy"
	"prefcover/internal/lru"
	"prefcover/internal/trace"
)

// Key identifies one cached solve lineage.
type Key struct {
	// GraphHash is the content hash from the graph registry.
	GraphHash string
	// Variant is the cover semantics.
	Variant graph.Variant
	// Pins is the canonical pinned-prefix encoding (PinsKey).
	Pins string
	// Strategy separates lineages by solver strategy. Every deterministic
	// strategy returns the byte-identical order, so the server leaves it
	// empty and they all share one lineage; a randomized solver must set it.
	Strategy string
}

// PinsKey canonicalizes a pinned-item list for Key.Pins. Order matters —
// pins are retained in the given order and occupy the front of the
// solution — so the encoding preserves it.
func PinsKey(pins []int32) string {
	if len(pins) == 0 {
		return ""
	}
	parts := make([]string, len(pins))
	for i, v := range pins {
		parts[i] = strconv.FormatInt(int64(v), 10)
	}
	return strings.Join(parts, ",")
}

// Query is the part of a solve request that selects a prefix rather than a
// lineage: the budget and/or threshold, exactly as greedy.Options takes
// them.
type Query struct {
	K         int
	Threshold float64
}

// Result is one cached solution: the full ordered greedy prefix at the
// largest budget solved so far, plus the cover curve that lets threshold
// queries binary-search their answer. It holds no per-node array: its size
// grows with the prefix, not the graph. Results are immutable once stored;
// Hit slices alias their arrays and must be treated as read-only.
type Result struct {
	// Order and Gains are the greedy selection (pins first).
	Order []int32
	Gains []float64
	// Curve[i] is C(Order[:i]) — len(Order)+1 nondecreasing values built
	// from the per-iteration gains, bitwise-equal to the solver's own
	// running cover (the engine accumulates the same deltas).
	Curve []float64
	// Reached is the original solve's threshold outcome.
	Reached bool
	// N is the graph's node count (so k > len(Order) can be served when
	// the order is exhaustive).
	N int
	// NumPins is the length of the forced prefix; no query can be served
	// with fewer items.
	NumPins int
}

// NewResult packages a successful solve for caching.
func NewResult(sol *greedy.Solution, n, numPins int) *Result {
	return &Result{
		Order:   sol.Order,
		Gains:   sol.Gains,
		Curve:   sol.PrefixCover(),
		Reached: sol.Reached,
		N:       n,
		NumPins: numPins,
	}
}

// bytes approximates the entry's memory footprint for the LRU budget.
func (r *Result) bytes() int64 {
	return int64(4*len(r.Order) + 8*len(r.Gains) + 8*len(r.Curve) + 96)
}

// Hit is a query answered from a cached result.
type Hit struct {
	// Order and Gains are the served prefix (aliases into the cached
	// result — read-only).
	Order []int32
	Gains []float64
	// Cover is C(Order).
	Cover float64
	// Reached mirrors greedy semantics: always true in pure budget mode,
	// threshold-met in threshold mode.
	Reached bool
	// Coverage is always nil: results keep no per-item coverage, and
	// callers rebuild it from Order (kernel.Replay). The field stays
	// because the serving benchmark's replay (bench/replay.go) reads it.
	Coverage []float64
}

// answer tries to serve q from r. The logic mirrors greedy.Solve exactly:
// budget mode picks min(K, n) items; threshold mode stops at the first
// prefix whose cover reaches Threshold - graph.Eps (never shorter than the
// pinned prefix), with K as a cap when both are set.
func (r *Result) answer(q Query) (*Hit, bool) {
	if q.K < 0 || q.Threshold < 0 || q.Threshold > 1 {
		return nil, false
	}
	if q.K == 0 && q.Threshold == 0 {
		return nil, false
	}
	if q.K > 0 && q.K < r.NumPins {
		// Fresh solve would reject (pins exceed K); never serve it.
		return nil, false
	}
	// limit is how many items the solver would pick at most: min(K, n),
	// with K == 0 meaning unbounded. Because limit is clamped to n, an
	// exhaustive cached order (len == n) serves any larger budget too.
	limit := r.N
	if q.K > 0 && q.K < limit {
		limit = q.K
	}
	var take int
	reached := true
	if q.Threshold > 0 {
		// Smallest prefix reaching the threshold: Curve is nondecreasing,
		// so binary search matches the solver's first-crossing stop.
		i := sort.SearchFloat64s(r.Curve, q.Threshold-graph.Eps)
		if i < r.NumPins {
			i = r.NumPins // the solver always retains every pin
		}
		switch {
		case i < len(r.Curve) && i <= limit:
			take = i
		case len(r.Order) >= limit:
			// Threshold unreachable within the cap; the solver stops at
			// the cap unreached.
			take, reached = limit, false
		default:
			// The cached prefix ends before the cap without reaching the
			// threshold — a fresh solve would keep going. Miss.
			return nil, false
		}
	} else {
		if limit > len(r.Order) {
			return nil, false // cached prefix shorter than the budget
		}
		take = limit
	}
	return &Hit{
		Order:   r.Order[:take],
		Gains:   r.Gains[:take],
		Cover:   r.Curve[take],
		Reached: reached,
	}, true
}

// Options bounds the cache.
type Options struct {
	// MaxEntries bounds the number of cached results (0 = DefaultMaxEntries).
	MaxEntries int
	// MaxBytes bounds the approximate retained bytes (0 = DefaultMaxBytes).
	MaxBytes int64
	// OnEvict, when non-nil, is called once per evicted entry (metrics).
	OnEvict func(key Key)
}

// Default bounds; a cached result is small (about 20 bytes per prefix
// item, so tens of KB for k in the thousands, whatever the graph size), so
// generous counts are cheap.
const (
	DefaultMaxEntries = 1024
	DefaultMaxBytes   = 1 << 30
)

// Status classifies how Do satisfied a request.
type Status int

const (
	// StatusMiss: this call ran the solver.
	StatusMiss Status = iota
	// StatusHit: served from a cached result, zero solver work.
	StatusHit
	// StatusCoalesced: an identical solve was already in flight; this call
	// waited for it instead of solving again.
	StatusCoalesced
)

func (s Status) String() string {
	switch s {
	case StatusHit:
		return "hit"
	case StatusCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Cache is the bounded, singleflight-coalescing result cache.
type Cache struct {
	opts Options

	mu      sync.Mutex
	entries *lru.Table[Key, *Result]

	inflight map[flightKey]*flight
}

// flightKey identifies one in-progress solve: the lineage plus the exact
// query, so different budgets for the same graph do not falsely coalesce.
type flightKey struct {
	key Key
	q   Query
}

type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// New returns an empty cache.
func New(opts Options) *Cache {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		opts:     opts,
		entries:  lru.New[Key](opts.MaxEntries, opts.MaxBytes, (*Result).bytes),
		inflight: make(map[flightKey]*flight),
	}
}

// Lookup tries to answer q from the cache without any computation.
func (c *Cache) Lookup(key Key, q Query) (*Hit, bool) {
	c.mu.Lock()
	r, ok := c.entries.Get(key)
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return r.answer(q)
}

// Store installs res under key, keeping whichever of the existing and new
// results has the longer prefix (a longer prefix answers strictly more
// queries; the shorter one is its own prefix, so nothing is lost).
func (c *Cache) Store(key Key, res *Result) {
	c.mu.Lock()
	if old, ok := c.entries.Get(key); ok && len(old.Order) >= len(res.Order) {
		c.mu.Unlock()
		return
	}
	evicted := c.entries.Put(key, res)
	c.mu.Unlock()
	if c.opts.OnEvict != nil {
		for _, ev := range evicted {
			c.opts.OnEvict(ev.Key)
		}
	}
}

// InvalidateGraph drops every result computed from the given content hash
// (graph replaced or deleted) and returns how many were removed. It scans
// every entry: it runs only when the registry drops a graph's content, and
// the table holds at most MaxEntries.
func (c *Cache) InvalidateGraph(hash string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	c.entries.Each(func(key Key, _ *Result) bool {
		if key.GraphHash == hash {
			c.entries.Remove(key)
			n++
		}
		return true
	})
	return n
}

// Do answers q for key: from cache if possible, otherwise by running
// compute — coalescing with any identical solve already in flight. On a
// miss the computed result is stored (and shared with coalesced waiters)
// before the hit is carved from it. A cache hit or a coalesced wait is
// annotated as an event on the span in ctx (if any), so traces show why a
// request skipped the solver.
func (c *Cache) Do(ctx context.Context, key Key, q Query, compute func() (*Result, error)) (*Hit, Status, error) {
	fk := flightKey{key: key, q: q}
	// Cache check and flight join under one lock acquisition, and (below)
	// the result is stored before its flight is released: at no instant is
	// a completed solve neither cached nor in flight, so identical
	// concurrent requests can never run compute twice.
	c.mu.Lock()
	if r, ok := c.entries.Get(key); ok {
		if h, answered := r.answer(q); answered {
			c.mu.Unlock()
			trace.FromContext(ctx).AddEvent("solvecache hit")
			return h, StatusHit, nil
		}
	}
	if fl, ok := c.inflight[fk]; ok {
		c.mu.Unlock()
		trace.FromContext(ctx).AddEvent("solvecache coalesced")
		<-fl.done
		if fl.err != nil {
			return nil, StatusCoalesced, fl.err
		}
		h, ok := fl.res.answer(q)
		if !ok {
			return nil, StatusCoalesced, fmt.Errorf("solvecache: coalesced result cannot answer query %+v", q)
		}
		return h, StatusCoalesced, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[fk] = fl
	c.mu.Unlock()

	res, err := compute()
	fl.res, fl.err = res, err
	if err == nil {
		c.Store(key, res)
	}
	c.mu.Lock()
	delete(c.inflight, fk)
	c.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, StatusMiss, err
	}
	h, ok := res.answer(q)
	if !ok {
		return nil, StatusMiss, fmt.Errorf("solvecache: computed result cannot answer query %+v", q)
	}
	return h, StatusMiss, nil
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// Bytes returns the approximate retained bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Bytes()
}
