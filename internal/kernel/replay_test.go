package kernel_test

import (
	"math"
	"testing"

	"prefcover/internal/cover"
	"prefcover/internal/graph"
	"prefcover/internal/greedy"
	"prefcover/internal/kernel"
)

// TestReplayCoverageMatchesSolve pins the serving layer's coverage report:
// replaying any prefix of a budget-kMax order reproduces, bit for bit, the
// Coverage of a fresh solve at that prefix's budget — under every
// deterministic strategy, both variants, with and without pins — and stays
// within float noise of the from-scratch cover.PerItemCoverage oracle.
func TestReplayCoverageMatchesSolve(t *testing.T) {
	for _, variant := range bothVariants {
		t.Run(variant.String(), func(t *testing.T) {
			t.Parallel()
			for _, dg := range corpus(t, variant) {
				pinSets := [][]int32{nil}
				if p := pinsFor(dg.g.NumNodes(), dg.k); p != nil {
					pinSets = append(pinSets, p)
				}
				for pi, pins := range pinSets {
					for _, name := range []string{"scan", "lazy", "parallel", "sketch"} {
						solve := func(k int) *greedy.Solution {
							opts := greedy.Options{Variant: variant, K: k, Pinned: pins}
							strategyConfigs()[name](&opts)
							sol, err := greedy.Solve(dg.g, opts)
							if err != nil {
								t.Fatalf("%s pins=%d %s k=%d: %v", dg.name, pi, name, k, err)
							}
							return sol
						}
						full := solve(dg.k)
						for k := max(1, len(pins)); k <= len(full.Order); k++ {
							checkReplay(t, dg.g, variant, full.Order[:k], solve(k).Coverage)
						}
					}
				}
			}
		})
	}
}

// checkReplay replays prefix and compares its coverage with want bitwise
// and with the from-scratch oracle within 1e-12.
func checkReplay(t *testing.T, g *graph.Graph, variant graph.Variant, prefix []int32, want []float64) {
	t.Helper()
	st := kernel.Replay(g, variant, prefix)
	defer st.Release()
	got := st.Coverage()
	if len(got) != len(want) {
		t.Fatalf("k=%d: replay coverage has %d entries, solve %d", len(prefix), len(got), len(want))
	}
	oracle, err := cover.PerItemCoverage(g, variant, prefix)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("k=%d: replay coverage[%d] = %v, solve %v", len(prefix), v, got[v], want[v])
		}
		if math.Abs(got[v]-oracle[v]) > 1e-12 {
			t.Fatalf("k=%d: replay coverage[%d] = %v, oracle %v", len(prefix), v, got[v], oracle[v])
		}
	}
}
