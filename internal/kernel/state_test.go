package kernel_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"prefcover/internal/cover"
	"prefcover/internal/graph"
	"prefcover/internal/graphtest"
	"prefcover/internal/greedy"
	"prefcover/internal/kernel"
)

// TestStateMatchesEngineBitwise co-drives a kernel.State and the reference
// cover.Engine through identical random add sequences and demands bitwise
// equality of every observable at every step — the arithmetic contract the
// differential solver suites build on.
func TestStateMatchesEngineBitwise(t *testing.T) {
	for _, variant := range []graph.Variant{graph.Independent, graph.Normalized} {
		rng := rand.New(rand.NewSource(0x57a7e ^ int64(variant)))
		for trial := 0; trial < 30; trial++ {
			n := 8 + rng.Intn(120)
			g := graphtest.Random(rng, n, 1+rng.Intn(9), variant)
			eng := cover.NewEngine(g, variant)
			st := kernel.NewState(g, variant)
			adds := graphtest.RandomSet(rng, g, 1+rng.Intn(n))
			for step := -1; step < len(adds); step++ {
				if step >= 0 {
					v := adds[step]
					de := eng.Add(v)
					dk := st.Add(v)
					if de != dk {
						t.Fatalf("%v trial %d step %d: Add delta %v != %v", variant, trial, step, dk, de)
					}
					// Re-adding must be a no-op in both.
					if eng.Add(v) != 0 || st.Add(v) != 0 {
						t.Fatalf("%v trial %d step %d: re-add not a no-op", variant, trial, step)
					}
				}
				if eng.Cover() != st.Cover() || eng.Size() != st.Size() {
					t.Fatalf("%v trial %d step %d: cover/size diverge: (%v,%d) != (%v,%d)",
						variant, trial, step, st.Cover(), st.Size(), eng.Cover(), eng.Size())
				}
				for v := int32(0); v < int32(n); v++ {
					if eng.Retained(v) != st.Retained(v) {
						t.Fatalf("%v trial %d step %d: retained[%d] diverges", variant, trial, step, v)
					}
					if eng.Gain(v) != st.Gain(v) {
						t.Fatalf("%v trial %d step %d: gain[%d] %v != %v",
							variant, trial, step, v, st.Gain(v), eng.Gain(v))
					}
					if eng.CoveredWeight(v) != st.CoveredWeight(v) {
						t.Fatalf("%v trial %d step %d: I[%d] %v != %v",
							variant, trial, step, v, st.CoveredWeight(v), eng.CoveredWeight(v))
					}
					if eng.ItemCoverage(v) != st.ItemCoverage(v) {
						t.Fatalf("%v trial %d step %d: coverage[%d] %v != %v",
							variant, trial, step, v, st.ItemCoverage(v), eng.ItemCoverage(v))
					}
				}
			}
			st.Release()
		}
	}
}

// TestStatePoolReuse checks the storage a graph's record lends: a state
// acquired after a released, dirtied one starts from S = {}; a second
// Release returns nothing; the record keeps at most GOMAXPROCS idle sets,
// which its buffers bytes count; and after any mix of solves and replays
// every idle set is, bit for bit, a newly allocated one. GC is off, so no
// trim after a GC cycle drops an idle set between the checks.
func TestStatePoolReuse(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(9))
	g := graphtest.Random(rng, 64, 4, graph.Independent)
	st := kernel.NewState(g, graph.Independent)
	for _, v := range graphtest.RandomSet(rng, g, 20) {
		st.Add(v)
	}
	st.Release()

	st2 := kernel.NewState(g, graph.Normalized) // different variant, same size class
	if st2.Size() != 0 || st2.Cover() != 0 {
		t.Fatalf("reused state not clean: size %d cover %v", st2.Size(), st2.Cover())
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if st2.Retained(v) {
			t.Fatalf("reused state retains node %d", v)
		}
		if st2.CoveredWeight(v) != 0 {
			t.Fatalf("reused state has I[%d] = %v", v, st2.CoveredWeight(v))
		}
	}
	eng := cover.NewEngine(g, graph.Normalized)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if eng.Gain(v) != st2.Gain(v) {
			t.Fatalf("reused state gain[%d] %v != engine %v", v, st2.Gain(v), eng.Gain(v))
		}
	}
	st2.Release()

	// Released twice, a state returns its set once: the next two states
	// hold two sets.
	st3 := kernel.NewState(g, graph.Independent)
	st3.Release()
	st3.Release()
	a, b := kernel.NewState(g, graph.Independent), kernel.NewState(g, graph.Independent)
	if kernel.BufferSet(a) == kernel.BufferSet(b) {
		t.Fatal("a double Release lent one buffer set to two states")
	}
	a.Release()
	b.Release()

	// Of 4×GOMAXPROCS sets in use at once, the record keeps GOMAXPROCS.
	procs := runtime.GOMAXPROCS(0)
	states := make([]*kernel.State, 4*procs)
	var wg sync.WaitGroup
	for i := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			states[i] = kernel.NewState(g, graph.Independent)
		}()
	}
	wg.Wait()
	for _, st := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.Release()
		}()
	}
	wg.Wait()
	n := g.NumNodes()
	setBytes := int64(8 * (3*n + 2*((n+63)/64))) // covered, liveW, scratch, the retained and touched bitsets; no picker ran
	idle := len(kernel.IdleBufferSets(g))
	if _, bufs := kernel.DerivedBytes(g); idle != procs || bufs != int64(idle)*setBytes {
		t.Fatalf("record keeps %d idle sets of %d bytes in all, want %d sets of %d bytes", idle, bufs, procs, setBytes)
	}

	// Solves under every strategy, a solve cancelled after three adds, a
	// full-budget solve and replays that list their touched nodes, on both
	// variants, with and without pins, on a random graph and on one with
	// zero and negative weights and self-loops: every idle set ends clean,
	// whether its Release walked back Add's writes or reset the whole set.
	for _, h := range []*graph.Graph{graphtest.Random(rng, 4000, 6, graph.Normalized), oddWeightGraph(rng, 3000)} {
		clean := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if dirty := kernel.DirtyIdleSet(h); dirty != "" {
				t.Fatalf("after %s: %s", what, dirty)
			}
		}
		for _, variant := range bothVariants {
			for _, pins := range [][]int32{nil, {7, 2, 11}} {
				var order []int32
				for name, config := range strategyConfigs() {
					opts := greedy.Options{Variant: variant, K: 12, Pinned: pins}
					config(&opts)
					sol, err := greedy.Solve(h, opts)
					clean(fmt.Sprintf("%v %s solve, pins %v", variant, name, pins), err)
					order = sol.Order
				}
				ctx, cancel := context.WithCancel(context.Background())
				_, err := greedy.Solve(h, greedy.Options{Variant: variant, K: 12, Pinned: pins, Ctx: ctx,
					Progress: func(ev greedy.ProgressEvent) {
						if ev.Step == 3 {
							cancel()
						}
					}})
				if err == nil {
					t.Fatal("cancelled solve succeeded")
				}
				clean(fmt.Sprintf("%v cancelled solve, pins %v", variant, pins), nil)
				full, err := greedy.Solve(h, greedy.Options{Variant: variant, K: h.NumNodes(), Pinned: pins})
				clean(fmt.Sprintf("%v full-budget solve, pins %v", variant, pins), err)
				for _, prefix := range [][]int32{order, full.Order} {
					st := kernel.Replay(h, variant, prefix)
					if kernel.Walks(st) != (len(prefix) < h.NumNodes()) {
						t.Fatalf("a replay of %d nodes walks: %v", len(prefix), kernel.Walks(st))
					}
					st.Touched(func(int32) {})
					st.Release()
					clean(fmt.Sprintf("%v replay of %d nodes", variant, len(prefix)), nil)
				}
			}
		}
	}
}

// oddWeightGraph is a random graph whose node weights include zeros and a
// negative value, and some of whose nodes have self-loops.
func oddWeightGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, 4*n)
	for v := 0; v < n; v++ {
		w := rng.Float64() / float64(n)
		switch v % 9 {
		case 0:
			w = 0
		case 4:
			w = -1e-12
		case 5:
			w = -0.01
		}
		b.AddNode(w)
	}
	for v := int32(0); v < int32(n); v++ {
		if v%5 == 0 {
			b.AddEdge(v, v, 0.5)
		}
		for _, u := range rng.Perm(n)[:3] {
			if int32(u) != v {
				b.AddEdge(v, int32(u), 0.2)
			}
		}
	}
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

// TestIdleBuffersGoWithGC: the sets a record keeps idle survive the GC
// cycle in which a State took one, and are dropped once a whole cycle
// passes with none taken, as sync.Pool drops its victims; its buffers bytes
// then fall to 0, and the base heap stays with the graph.
func TestIdleBuffersGoWithGC(t *testing.T) {
	g := graphtest.Random(rand.New(rand.NewSource(11)), 300, 5, graph.Independent)
	if _, err := greedy.Solve(g, greedy.Options{Variant: graph.Independent, K: 5, Strategy: greedy.StrategyLazy}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	time.Sleep(20 * time.Millisecond) // lets the first trim run
	if _, bufs := kernel.DerivedBytes(g); bufs == 0 || len(kernel.IdleBufferSets(g)) == 0 {
		t.Fatalf("a graph solved in the last GC cycle keeps %d idle sets, %d buffer bytes; want some", len(kernel.IdleBufferSets(g)), bufs)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if _, bufs := kernel.DerivedBytes(g); bufs == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	heaps, bufs := kernel.DerivedBytes(g)
	if idle := len(kernel.IdleBufferSets(g)); idle != 0 || bufs != 0 {
		t.Errorf("after GC cycles with no solve the record keeps %d idle sets, %d buffer bytes; want none", idle, bufs)
	}
	if heaps == 0 || !kernel.Memoized(g, graph.Independent) {
		t.Error("GC cycles dropped the base heap of a live graph")
	}
}

// TestRecordsKeepBuffersPerGraph: two graphs of one node count, solved
// concurrently and alternately by lazy, scan and Replay, never trade buffer
// sets, and each answers its own scan.
func TestRecordsKeepBuffersPerGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(0x2ec))
	var gs [2]*graph.Graph
	var scans [2]*greedy.Solution
	for i := range gs {
		gs[i] = graphtest.Random(rng, 200, 5, graph.Normalized)
		var err error
		if scans[i], err = greedy.Solve(gs[i], greedy.Options{Variant: graph.Normalized, K: 10, Strategy: greedy.StrategyScan}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	seen := map[any]int{} // buffer set -> the graph whose Replay held it
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				gi := (w + i) % 2
				want := scans[gi]
				if i%3 == 2 {
					st := kernel.Replay(gs[gi], graph.Normalized, want.Order)
					mu.Lock()
					if prev, ok := seen[kernel.BufferSet(st)]; ok && prev != gi {
						t.Errorf("graph %d's Replay holds a buffer set graph %d's held", gi, prev)
					}
					seen[kernel.BufferSet(st)] = gi
					mu.Unlock()
					if st.Cover() != want.Cover || !slices.Equal(st.Coverage(), want.Coverage) {
						t.Errorf("graph %d: Replay of the scan prefix reads another cover", gi)
					}
					st.Release()
					continue
				}
				strategy := []string{greedy.StrategyLazy, greedy.StrategyScan}[i%3]
				sol, err := greedy.Solve(gs[gi], greedy.Options{Variant: graph.Normalized, K: 10, Strategy: strategy})
				if err != nil {
					t.Error(err)
				} else if !slices.Equal(sol.Order, want.Order) || !slices.Equal(sol.Gains, want.Gains) {
					t.Errorf("graph %d %s: order %v gains %v, want the scan's %v %v", gi, strategy, sol.Order, sol.Gains, want.Order, want.Gains)
				}
			}
		}()
	}
	wg.Wait()
	for gi, g := range gs {
		for _, set := range kernel.IdleBufferSets(g) {
			if prev, ok := seen[set]; ok && prev != gi {
				t.Errorf("graph %d's record keeps a set graph %d's Replay held", gi, prev)
			}
			seen[set] = gi
		}
	}
}

// TestItemCoverageGuards is the boundary table for the NaN/Inf coverage
// clamp, run against both the reference engine and the flat state (they
// share the clamp helper, and both must agree).
func TestItemCoverageGuards(t *testing.T) {
	for _, tc := range []struct {
		name string
		cov  float64
		want float64
	}{
		{"in-range", 0.75, 0.75},
		{"exact-one", 1.0, 1.0},
		{"exact-zero", 0.0, 0.0},
		{"float-noise-above-one", 1.0000000001, 1},
		{"plus-inf", math.Inf(1), 1},
		{"negative-noise", -1e-18, 0},
		{"minus-inf", math.Inf(-1), 0},
		{"nan", math.NaN(), 0},
	} {
		if got := cover.ClampCoverage(tc.cov); got != tc.want {
			t.Errorf("ClampCoverage(%s = %v) = %v, want %v", tc.name, tc.cov, got, tc.want)
		}
	}
}

// TestItemCoverageBoundaryBothVariants builds graphs whose weights push the
// coverage ratio to the clamp boundaries — a denormal-weight node whose
// ratio overflows to +Inf, and a NaN-weight node that poisons I — and
// checks both variants of both engines report clamped values, never NaN or
// a value outside [0,1].
func TestItemCoverageBoundaryBothVariants(t *testing.T) {
	for _, variant := range []graph.Variant{graph.Independent, graph.Normalized} {
		// Node 0: denormal weight, fully coverable by node 1 — covered/weight
		// can overflow. Node 2: NaN weight propagates NaN into I[2] when
		// node 1 is added. Node 1: the retained coverer.
		b := graph.NewBuilder(3, 2)
		b.AddNode(5e-324)
		b.AddNode(0.5)
		b.AddNode(math.NaN())
		b.AddEdge(0, 1, 1.0)
		b.AddEdge(2, 1, 1.0)
		g, err := b.Build(graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng := cover.NewEngine(g, variant)
		st := kernel.NewState(g, variant)
		eng.Add(1)
		st.Add(1)
		for v := int32(0); v < 3; v++ {
			ce := eng.ItemCoverage(v)
			ck := st.ItemCoverage(v)
			if math.IsNaN(ce) || ce < 0 || ce > 1 {
				t.Errorf("%v: engine ItemCoverage(%d) = %v escaped the clamp", variant, v, ce)
			}
			if ce != ck && !(math.IsNaN(ce) && math.IsNaN(ck)) {
				t.Errorf("%v: ItemCoverage(%d) engine %v != kernel %v", variant, v, ce, ck)
			}
		}
		st.Release()
	}
}
