package solvecache

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"prefcover/internal/graph"
	"prefcover/internal/graphtest"
	"prefcover/internal/greedy"
)

// strategyOptions maps the three deterministic strategies to solver
// options.
var strategyOptions = map[string]func(o greedy.Options) greedy.Options{
	greedy.StrategyScan:     func(o greedy.Options) greedy.Options { o.Strategy = greedy.StrategyScan; return o },
	greedy.StrategyLazy:     func(o greedy.Options) greedy.Options { return o },
	greedy.StrategyParallel: func(o greedy.Options) greedy.Options { o.Strategy = greedy.StrategyParallel; o.Workers = 3; return o },
}

func solveResult(t *testing.T, g *graph.Graph, opts greedy.Options) *Result {
	t.Helper()
	sol, err := greedy.Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewResult(sol, g.NumNodes(), len(opts.Pinned))
}

// TestPrefixPropertyServing is the core cacheability claim: the cached
// k_max result answers every budget k' <= k_max with exactly the
// solution a fresh solve at k' produces — for both variants and all
// three deterministic strategies.
func TestPrefixPropertyServing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, variant := range []graph.Variant{graph.Independent, graph.Normalized} {
		for trial := 0; trial < 3; trial++ {
			g := graphtest.Random(rng, 40+rng.Intn(40), 5, variant)
			kMax := 1 + rng.Intn(g.NumNodes())
			for name, mod := range strategyOptions {
				t.Run(fmt.Sprintf("%s/%s/trial%d", variant, name, trial), func(t *testing.T) {
					base := mod(greedy.Options{Variant: variant})
					full := base
					full.K = kMax
					res := solveResult(t, g, full)
					for kp := 1; kp <= kMax; kp++ {
						hit, ok := res.answer(Query{K: kp})
						if !ok {
							t.Fatalf("k'=%d: no hit from cached k=%d", kp, kMax)
						}
						fresh := base
						fresh.K = kp
						want, err := greedy.Solve(g, fresh)
						if err != nil {
							t.Fatal(err)
						}
						if len(hit.Order) != len(want.Order) {
							t.Fatalf("k'=%d: prefix length %d, fresh %d", kp, len(hit.Order), len(want.Order))
						}
						for i := range want.Order {
							if hit.Order[i] != want.Order[i] {
								t.Fatalf("k'=%d: order[%d] = %d, fresh %d", kp, i, hit.Order[i], want.Order[i])
							}
							if hit.Gains[i] != want.Gains[i] {
								t.Fatalf("k'=%d: gain[%d] = %g, fresh %g", kp, i, hit.Gains[i], want.Gains[i])
							}
						}
						if math.Abs(hit.Cover-want.Cover) > 1e-9 {
							t.Fatalf("k'=%d: cover %g, fresh %g", kp, hit.Cover, want.Cover)
						}
						if !hit.Reached {
							t.Fatalf("k'=%d: budget-mode hit not Reached", kp)
						}
						if hit.Coverage != nil {
							t.Fatalf("k'=%d: hit carries a coverage report; the cache keeps none", kp)
						}
					}
					// Budgets beyond the cached prefix miss (unless the
					// order is exhaustive).
					if kMax < g.NumNodes() {
						if _, ok := res.answer(Query{K: kMax + 1}); ok {
							t.Fatalf("k'=%d > cached %d served", kMax+1, kMax)
						}
					}
				})
			}
		}
	}
}

// TestThresholdBinarySearchMatchesMinCover: threshold-mode answers carved
// out of an exhaustive cached curve must equal a fresh MinCover solve.
func TestThresholdBinarySearchMatchesMinCover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, variant := range []graph.Variant{graph.Independent, graph.Normalized} {
		g := graphtest.Random(rng, 60, 5, variant)
		// Cache an exhaustive solve (k = n) so every threshold is answerable.
		res := solveResult(t, g, greedy.Options{Variant: variant, K: g.NumNodes()})
		total := res.Curve[len(res.Curve)-1]
		for trial := 0; trial < 25; trial++ {
			th := rng.Float64() * total * 1.05 // some thresholds unreachable
			if th <= 0 || th > 1 {
				continue
			}
			want, err := greedy.Solve(g, greedy.Options{Variant: variant, Threshold: th})
			if err != nil {
				t.Fatal(err)
			}
			hit, ok := res.answer(Query{Threshold: th})
			if !ok {
				t.Fatalf("threshold %g: no hit from exhaustive cache", th)
			}
			if len(hit.Order) != len(want.Order) {
				t.Fatalf("threshold %g: %d items, fresh MinCover %d", th, len(hit.Order), len(want.Order))
			}
			for i := range want.Order {
				if hit.Order[i] != want.Order[i] {
					t.Fatalf("threshold %g: order[%d] = %d, fresh %d", th, i, hit.Order[i], want.Order[i])
				}
			}
			if hit.Reached != want.Reached {
				t.Fatalf("threshold %g: reached=%v, fresh %v", th, hit.Reached, want.Reached)
			}
			if math.Abs(hit.Cover-want.Cover) > 1e-9 {
				t.Fatalf("threshold %g: cover %g, fresh %g", th, hit.Cover, want.Cover)
			}
		}

		// Threshold + K cap, against the solver's combined mode.
		for trial := 0; trial < 10; trial++ {
			th := rng.Float64() * total
			k := 1 + rng.Intn(g.NumNodes())
			if th <= 0 {
				continue
			}
			want, err := greedy.Solve(g, greedy.Options{Variant: variant, Threshold: th, K: k})
			if err != nil {
				t.Fatal(err)
			}
			hit, ok := res.answer(Query{Threshold: th, K: k})
			if !ok {
				t.Fatalf("threshold %g k %d: no hit", th, k)
			}
			if len(hit.Order) != len(want.Order) || hit.Reached != want.Reached {
				t.Fatalf("threshold %g k %d: %d/%v, fresh %d/%v",
					th, k, len(hit.Order), hit.Reached, len(want.Order), want.Reached)
			}
		}
	}
}

// TestThresholdMissOnShortPrefix: a cached budget solve whose curve never
// reaches the asked threshold must miss (the solver would keep selecting).
func TestThresholdMissOnShortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graphtest.Random(rng, 50, 4, graph.Independent)
	res := solveResult(t, g, greedy.Options{Variant: graph.Independent, K: 3})
	top := res.Curve[len(res.Curve)-1]
	if _, ok := res.answer(Query{Threshold: math.Min(1, top*1.5)}); ok {
		t.Fatal("threshold beyond the cached curve served from a non-exhaustive prefix")
	}
	// But thresholds inside the curve are served.
	if _, ok := res.answer(Query{Threshold: top / 2}); !ok {
		t.Fatal("threshold inside the cached curve missed")
	}
}

func TestPinnedPrefixServing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graphtest.Random(rng, 40, 4, graph.Independent)
	pins := []int32{5, 17}
	base := greedy.Options{Variant: graph.Independent, Pinned: pins}
	full := base
	full.K = 12
	res := solveResult(t, g, full)
	for kp := len(pins); kp <= 12; kp++ {
		hit, ok := res.answer(Query{K: kp})
		if !ok {
			t.Fatalf("k'=%d: miss", kp)
		}
		fresh := base
		fresh.K = kp
		want, err := greedy.Solve(g, fresh)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Order {
			if hit.Order[i] != want.Order[i] {
				t.Fatalf("k'=%d: order[%d] = %d, fresh %d", kp, i, hit.Order[i], want.Order[i])
			}
		}
	}
	// A budget below the pin count would make the solver error; the cache
	// must not pretend to know better.
	if _, ok := res.answer(Query{K: 1}); ok {
		t.Fatal("k < len(pins) served")
	}
}

func TestStoreKeepsLongerPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graphtest.Random(rng, 30, 4, graph.Independent)
	c := New(Options{})
	key := Key{GraphHash: "h", Variant: graph.Independent, Strategy: greedy.StrategyLazy}
	long := solveResult(t, g, greedy.Options{Variant: graph.Independent, K: 10})
	short := solveResult(t, g, greedy.Options{Variant: graph.Independent, K: 4})
	c.Store(key, long)
	c.Store(key, short) // must not shadow the longer prefix
	if _, ok := c.Lookup(key, Query{K: 9}); !ok {
		t.Fatal("storing a shorter result clobbered the longer prefix")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestInvalidateGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graphtest.Random(rng, 30, 4, graph.Independent)
	c := New(Options{})
	res := solveResult(t, g, greedy.Options{Variant: graph.Independent, K: 5})
	kA := Key{GraphHash: "a", Variant: graph.Independent, Strategy: greedy.StrategyLazy}
	kA2 := Key{GraphHash: "a", Variant: graph.Normalized, Strategy: greedy.StrategyLazy}
	kB := Key{GraphHash: "b", Variant: graph.Independent, Strategy: greedy.StrategyLazy}
	c.Store(kA, res)
	c.Store(kA2, res)
	c.Store(kB, res)
	if n := c.InvalidateGraph("a"); n != 2 {
		t.Fatalf("InvalidateGraph removed %d, want 2", n)
	}
	if _, ok := c.Lookup(kA, Query{K: 5}); ok {
		t.Fatal("invalidated entry still served")
	}
	if _, ok := c.Lookup(kB, Query{K: 5}); !ok {
		t.Fatal("unrelated entry invalidated")
	}
	if n := c.InvalidateGraph("a"); n != 0 {
		t.Fatalf("second invalidation removed %d", n)
	}
}

func TestLRUEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graphtest.Random(rng, 30, 4, graph.Independent)
	res := solveResult(t, g, greedy.Options{Variant: graph.Independent, K: 5})
	var evicted []Key
	c := New(Options{MaxEntries: 2, OnEvict: func(k Key) { evicted = append(evicted, k) }})
	key := func(h string) Key {
		return Key{GraphHash: h, Variant: graph.Independent, Strategy: greedy.StrategyLazy}
	}
	c.Store(key("a"), res)
	c.Store(key("b"), res)
	c.Lookup(key("a"), Query{K: 5}) // b becomes LRU
	c.Store(key("c"), res)
	if len(evicted) != 1 || evicted[0].GraphHash != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if _, ok := c.Lookup(key("a"), Query{K: 5}); !ok {
		t.Fatal("recently used entry evicted")
	}
}

// TestSingleflightCoalescing: concurrent identical misses run the solver
// exactly once; everyone gets the same answer.
func TestSingleflightCoalescing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graphtest.Random(rng, 40, 4, graph.Independent)
	c := New(Options{})
	key := Key{GraphHash: "x", Variant: graph.Independent, Strategy: greedy.StrategyLazy}

	var computes atomic.Int64
	gate := make(chan struct{})
	compute := func() (*Result, error) {
		computes.Add(1)
		<-gate // hold every caller in flight until all have arrived
		sol, err := greedy.Solve(g, greedy.Options{Variant: graph.Independent, K: 8})
		if err != nil {
			return nil, err
		}
		return NewResult(sol, g.NumNodes(), 0), nil
	}

	const callers = 8
	var started, done sync.WaitGroup
	statuses := make([]Status, callers)
	errs := make([]error, callers)
	started.Add(callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			started.Done()
			started.Wait() // maximize overlap
			hit, st, err := c.Do(context.Background(), key, Query{K: 8}, compute)
			statuses[i], errs[i] = st, err
			if err == nil && len(hit.Order) != 8 {
				errs[i] = fmt.Errorf("hit length %d", len(hit.Order))
			}
		}(i)
	}
	started.Wait()
	close(gate)
	done.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	var misses, hits, coalesced int
	for _, st := range statuses {
		switch st {
		case StatusMiss:
			misses++
		case StatusHit:
			hits++
		case StatusCoalesced:
			coalesced++
		}
	}
	// Exactly the callers that raced past the initial Lookup before the
	// leader stored must have coalesced; with the gate, that is everyone
	// but the leader... except callers that arrived after the flight was
	// already gone — those read the cache (hit). Either way the solver ran
	// at most... exactly once is the whole point:
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	if misses != 1 {
		t.Fatalf("misses = %d (hits=%d coalesced=%d), want exactly 1 leader", misses, hits, coalesced)
	}
	// And afterwards it is a plain hit.
	_, st, err := c.Do(context.Background(), key, Query{K: 3}, compute)
	if err != nil || st != StatusHit {
		t.Fatalf("warm Do = %v/%v, want hit", st, err)
	}
}

func TestDoPropagatesComputeError(t *testing.T) {
	c := New(Options{})
	key := Key{GraphHash: "e", Variant: graph.Independent, Strategy: greedy.StrategyLazy}
	wantErr := fmt.Errorf("boom")
	_, st, err := c.Do(context.Background(), key, Query{K: 2}, func() (*Result, error) { return nil, wantErr })
	if err != wantErr || st != StatusMiss {
		t.Fatalf("Do = %v/%v", st, err)
	}
	if c.Len() != 0 {
		t.Fatal("failed compute cached")
	}
	// The flight is gone; a retry recomputes.
	rng := rand.New(rand.NewSource(8))
	g := graphtest.Random(rng, 20, 3, graph.Independent)
	_, st, err = c.Do(context.Background(), key, Query{K: 2}, func() (*Result, error) {
		sol, err := greedy.Solve(g, greedy.Options{Variant: graph.Independent, K: 2})
		if err != nil {
			return nil, err
		}
		return NewResult(sol, g.NumNodes(), 0), nil
	})
	if err != nil || st != StatusMiss {
		t.Fatalf("retry Do = %v/%v", st, err)
	}
}
