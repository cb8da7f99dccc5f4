package kernel_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"prefcover/internal/graph"
	"prefcover/internal/graphtest"
	"prefcover/internal/greedy"
	"prefcover/internal/kernel"
	"prefcover/internal/store"
)

var bothVariants = []graph.Variant{graph.Independent, graph.Normalized}

// warmMemo solves g under both variants with the lazy strategy and its
// sketch alias, which memoizes its base heap, and checks that it did.
func warmMemo(t *testing.T, g *graph.Graph) {
	t.Helper()
	for _, variant := range bothVariants {
		for _, strategy := range []string{greedy.StrategyLazy, greedy.StrategySketch} {
			if _, err := greedy.Solve(g, greedy.Options{Variant: variant, K: 5, Strategy: strategy}); err != nil {
				t.Fatal(err)
			}
		}
		if !kernel.Memoized(g, variant) {
			t.Fatalf("%s: warm solves memoized no base heap", variant)
		}
	}
}

// watch returns a channel closed once g has been garbage-collected.
func watch(g *graph.Graph) <-chan struct{} {
	gone := make(chan struct{})
	runtime.SetFinalizer(g, func(*graph.Graph) { close(gone) })
	return gone
}

// assertCollected demands that the watched graph — and with it the memo
// that lives on it — is garbage once the registry has let go of it.
func assertCollected(t *testing.T, what string, gone <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-gone:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Errorf("%s: the released graph and its memo are still reachable", what)
}

// assertServesScanPrefix solves the registry's current graph with the
// memo-backed strategies and demands the scan's order on want.
func assertServesScanPrefix(t *testing.T, what string, reg *store.Registry, name string, want *graph.Graph) {
	t.Helper()
	e, ok := reg.Get(name)
	if !ok {
		t.Fatalf("%s: %q missing", what, name)
	}
	for _, variant := range bothVariants {
		scan, err := greedy.Solve(want, greedy.Options{Variant: variant, K: 8, Strategy: greedy.StrategyScan})
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range []string{greedy.StrategyLazy, greedy.StrategySketch} {
			sol, err := greedy.Solve(e.Graph, greedy.Options{Variant: variant, K: 8, Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, what, strategy, 0, scan, sol)
		}
	}
}

// TestRegistryReleasesKernelMemo: the kernel memoizes its base heap on the
// graph itself, so every way the registry lets go of a graph — a re-PUT
// with different content, a Delete, an eviction — leaves the old graph and
// its memo collectable, and the next solve serves the current graph's scan
// prefix. A re-PUT with the same content keeps the registered graph and its
// memo, and lets go of the newly decoded copy instead.
func TestRegistryReleasesKernelMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf06))
	newGraph := func() *graph.Graph { return graphtest.Random(rng, 120, 5, graph.Normalized) }
	reg, err := store.New(store.Options{MaxGraphs: 2})
	if err != nil {
		t.Fatal(err)
	}
	put := func(name string, g *graph.Graph) {
		t.Helper()
		if _, _, err := reg.Put(name, g); err != nil {
			t.Fatal(err)
		}
	}
	// putWarm registers a fresh graph under name with its memo warmed and
	// keeps no reference to it, only a channel that reports its collection.
	putWarm := func(name string, g *graph.Graph) <-chan struct{} {
		t.Helper()
		put(name, g)
		warmMemo(t, g)
		return watch(g)
	}

	old := putWarm("a", newGraph())
	next := newGraph()
	put("a", next)
	assertCollected(t, "different-content re-PUT", old)
	assertServesScanPrefix(t, "different-content re-PUT", reg, "a", next)

	var enc bytes.Buffer
	if err := graph.WriteBinary(&enc, next); err != nil {
		t.Fatal(err)
	}
	same, err := graph.ReadBinary(&enc)
	if err != nil {
		t.Fatal(err)
	}
	hash := func(name string) string { e, _ := reg.Get(name); return e.Hash }
	warmMemo(t, next)
	hashBefore := hash("a")
	put("a", same)
	if hash("a") != hashBefore {
		t.Fatal("same-content re-PUT changed the content hash")
	}
	copied := watch(same)
	same, next = next, nil // "a" keeps its graph; the decoded copy goes
	if e, _ := reg.Get("a"); e.Graph != same {
		t.Fatal("same-content re-PUT installed the decoded copy")
	}
	assertCollected(t, "same-content re-PUT", copied)
	for _, variant := range bothVariants {
		if !kernel.Memoized(same, variant) {
			t.Errorf("same-content re-PUT dropped the %s memo", variant)
		}
	}
	assertServesScanPrefix(t, "same-content re-PUT", reg, "a", same)

	deleted := putWarm("d", newGraph())
	reg.Delete("d")
	assertCollected(t, "Delete", deleted)

	// MaxGraphs is 2: with "a" and "b" held, putting "c" evicts the least
	// recently used, "a"; "b" stays and keeps its memo.
	kept := newGraph()
	putWarm("b", kept)
	warmMemo(t, same)
	evicted := watch(same)
	same = nil
	reg.Get("b")
	put("c", newGraph())
	if _, ok := reg.Get("a"); ok {
		t.Fatal("eviction kept the least recently used graph")
	}
	assertCollected(t, "eviction", evicted)
	if !kernel.Memoized(kept, graph.Independent) {
		t.Error("eviction dropped a surviving graph's memo")
	}
}

// TestConcurrentSolvesShareMemo: solves racing on a fresh graph all build,
// store and read its memo at once; under -race the accesses stay
// synchronized and every solve still returns the scan's prefix.
func TestConcurrentSolvesShareMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a4))
	for _, variant := range bothVariants {
		g := graphtest.Random(rng, 300, 6, variant)
		scan, err := greedy.Solve(g, greedy.Options{Variant: variant, K: 12, Strategy: greedy.StrategyScan})
		if err != nil {
			t.Fatal(err)
		}
		strategies := []string{greedy.StrategyLazy, greedy.StrategySketch}
		sols := make([]*greedy.Solution, 8)
		errs := make([]error, len(sols))
		var wg sync.WaitGroup
		for i := range sols {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sols[i], errs[i] = greedy.Solve(g, greedy.Options{Variant: variant, K: 12, Strategy: strategies[i%2], Workers: 2})
			}()
		}
		wg.Wait()
		for i, sol := range sols {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			assertIdentical(t, variant.String(), strategies[i%2], 0, scan, sol)
		}
	}
}
