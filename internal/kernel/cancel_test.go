package kernel_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"prefcover/internal/graph"
	"prefcover/internal/graphtest"
	"prefcover/internal/greedy"
	"prefcover/internal/kernel"

	"math/rand"
)

// TestPickerBuildCancellation: a context canceled before the heap build
// must surface on the first Pick, for both the cold (chunk-parallel gain
// computation) and warm (memoized base heap) build paths.
func TestPickerBuildCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(0xca0))
	g := graphtest.Random(rng, 500, 6, graph.Independent)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for pass := 0; pass < 2; pass++ {
		// Pass 0 hits the cold build (fresh graph, no cached base heap);
		// pass 1 warms the cache first so the canceled build exercises the
		// cache-hit path's polling loop.
		if pass == 1 {
			st := kernel.NewState(g, graph.Independent)
			if p := kernel.NewPicker(context.Background(), st, 4); p == nil {
				t.Fatal("warm build failed")
			}
			st.Release()
		}
		st := kernel.NewState(g, graph.Independent)
		p := kernel.NewPicker(ctx, st, 4)
		if _, _, _, _, err := p.Pick(); !errors.Is(err, context.Canceled) {
			t.Fatalf("pass %d: Pick after canceled build: err = %v, want context.Canceled", pass, err)
		}
		st.Release()
	}
}

// TestPickerMidPickCancellation: cancellation between picks is observed on
// the next Pick, and the selections made before it are exactly the prefix
// of the uncancelled deterministic order.
func TestPickerMidPickCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(0xca1))
	g := graphtest.Random(rng, 300, 5, graph.Normalized)
	full, err := greedy.Solve(g, greedy.Options{Variant: graph.Normalized, K: 40, Strategy: greedy.StrategyLazyFlat})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	st := kernel.NewState(g, graph.Normalized)
	defer st.Release()
	p := kernel.NewPicker(ctx, st, 1)
	var picked []int32
	for i := 0; i < 10; i++ {
		v, _, _, ok, err := p.Pick()
		if err != nil || !ok {
			t.Fatalf("pick %d: ok=%v err=%v", i, ok, err)
		}
		st.Add(v)
		picked = append(picked, v)
	}
	cancel()
	if _, _, _, _, err := p.Pick(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Pick after cancel: err = %v, want context.Canceled", err)
	}
	for i, v := range picked {
		if v != full.Order[i] {
			t.Fatalf("canceled prefix diverges at %d: %d != %d", i, v, full.Order[i])
		}
	}
}

// TestChunkParallelCancelUnderRace cancels the context concurrently while
// chunk-parallel workers are scanning gains. Run under -race this checks
// the build's only shared mutable state (the cancellation flag and the
// disjoint gain stripes) is coordinated correctly; the build either
// completes or reports context.Canceled, and a completed build still
// yields the deterministic selection.
func TestChunkParallelCancelUnderRace(t *testing.T) {
	rng := rand.New(rand.NewSource(0xca2))
	for trial := 0; trial < 8; trial++ {
		g := graphtest.Random(rng, 2000, 8, graph.Independent)
		want, err := greedy.Solve(g, greedy.Options{Variant: graph.Independent, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			cancel() // races with the workers' stride polls, by design
		}()
		st := kernel.NewState(g, graph.Independent)
		p := kernel.NewPicker(ctx, st, 8)
		v, _, _, ok, err := p.Pick()
		wg.Wait()
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
			}
		case !ok:
			t.Fatalf("trial %d: no selection and no error", trial)
		case v != want.Order[0]:
			t.Fatalf("trial %d: survived cancellation but picked %d, want %d", trial, v, want.Order[0])
		}
		st.Release()
		cancel()
	}
}
