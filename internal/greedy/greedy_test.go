package greedy_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"prefcover/internal/baseline"
	"prefcover/internal/cover"
	"prefcover/internal/fixture"
	"prefcover/internal/graph"
	"prefcover/internal/graphtest"
	. "prefcover/internal/greedy"
)

const tol = 1e-9

func bothVariants(t *testing.T, f func(t *testing.T, variant graph.Variant)) {
	t.Run("independent", func(t *testing.T) { f(t, graph.Independent) })
	t.Run("normalized", func(t *testing.T) { f(t, graph.Normalized) })
}

// TestExample32 runs Algorithm 1 on the Figure 1 graph with k=2 and checks
// the full trace from paper Example 3.2: pick B (gain 66%), then D (gain
// 21.3%), total 87.3%.
func TestExample32(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		g := fixture.Figure1Graph()
		sol, err := Solve(g, Options{Variant: variant, K: fixture.Fig1K})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := g.Lookup("B")
		d, _ := g.Lookup("D")
		if len(sol.Order) != 2 || sol.Order[0] != b || sol.Order[1] != d {
			labels := make([]string, len(sol.Order))
			for i, v := range sol.Order {
				labels[i] = g.Label(v)
			}
			t.Fatalf("order = %v, want [B D]", labels)
		}
		if math.Abs(sol.Gains[0]-fixture.Fig1GainB) > tol {
			t.Errorf("gain B = %g", sol.Gains[0])
		}
		if math.Abs(sol.Gains[1]-fixture.Fig1GainD) > tol {
			t.Errorf("gain D = %g", sol.Gains[1])
		}
		if math.Abs(sol.Cover-fixture.Fig1CoverBD) > tol {
			t.Errorf("cover = %g, want %g", sol.Cover, fixture.Fig1CoverBD)
		}
		a, _ := g.Lookup("A")
		e, _ := g.Lookup("E")
		if math.Abs(sol.Coverage[a]-fixture.Fig1CoverageA) > tol {
			t.Errorf("coverage A = %g", sol.Coverage[a])
		}
		if math.Abs(sol.Coverage[e]-fixture.Fig1CoverageE) > tol {
			t.Errorf("coverage E = %g", sol.Coverage[e])
		}
	})
}

func TestOptionsValidation(t *testing.T) {
	g := fixture.Figure1Graph()
	for name, opts := range map[string]Options{
		"no budget or threshold": {Variant: graph.Independent},
		"negative k":             {Variant: graph.Independent, K: -2},
		"threshold too big":      {Variant: graph.Independent, Threshold: 1.5},
		"negative threshold":     {Variant: graph.Independent, Threshold: -0.5, K: 1},
		"NaN threshold":          {Variant: graph.Independent, Threshold: math.NaN()},
		"NaN threshold with k":   {Variant: graph.Independent, Threshold: math.NaN(), K: 2},
	} {
		if _, err := Solve(g, opts); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestKLargerThanNSelectsAll(t *testing.T) {
	g := fixture.Figure1Graph()
	sol, err := Solve(g, Options{Variant: graph.Independent, K: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Order) != g.NumNodes() {
		t.Fatalf("selected %d of %d", len(sol.Order), g.NumNodes())
	}
	if math.Abs(sol.Cover-1) > tol {
		t.Errorf("cover = %g, want 1", sol.Cover)
	}
}

// TestStrategiesAgree is the central determinism property: sequential scan,
// parallel scan, and lazy evaluation must produce the identical ordered
// solution.
func TestStrategiesAgree(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 3+rng.Intn(40), 5, variant)
			k := 1 + rng.Intn(g.NumNodes())
			seq, err1 := Solve(g, Options{Variant: variant, K: k, Strategy: StrategyScan})
			par, err2 := Solve(g, Options{Variant: variant, K: k, Strategy: StrategyParallel, Workers: 4})
			lzy, err3 := Solve(g, Options{Variant: variant, K: k})
			if err1 != nil || err2 != nil || err3 != nil {
				return false
			}
			return reflect.DeepEqual(seq.Order, par.Order) &&
				reflect.DeepEqual(seq.Order, lzy.Order) &&
				math.Abs(seq.Cover-par.Cover) < tol &&
				math.Abs(seq.Cover-lzy.Cover) < tol
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	})
}

// TestLazyEvaluatesFewerGains confirms the CELF ablation premise.
func TestLazyEvaluatesFewerGains(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graphtest.Random(rng, 400, 6, graph.Independent)
	k := 100
	seq, err := Solve(g, Options{Variant: graph.Independent, K: k, Strategy: StrategyScan})
	if err != nil {
		t.Fatal(err)
	}
	lzy, err := Solve(g, Options{Variant: graph.Independent, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if lzy.GainEvals >= seq.GainEvals {
		t.Errorf("lazy evals %d >= scan evals %d", lzy.GainEvals, seq.GainEvals)
	}
}

// TestPrefixProperty: the k'-prefix of the greedy order is the greedy
// solution for budget k' (paper Section 3.2, Additional Advantages).
func TestPrefixProperty(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 3+rng.Intn(30), 4, variant)
			k := 2 + rng.Intn(g.NumNodes()-1)
			full, err := Solve(g, Options{Variant: variant, K: k})
			if err != nil {
				return false
			}
			kPrime := 1 + rng.Intn(len(full.Order))
			part, err := Solve(g, Options{Variant: variant, K: kPrime})
			if err != nil {
				return false
			}
			return reflect.DeepEqual(part.Order, full.Order[:len(part.Order)])
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	})
}

// TestApproximationRatio: greedy must achieve at least (1 - 1/e) of the
// brute-force optimum on small random instances (both variants — the
// Normalized guarantee is even stronger for large k/n).
func TestApproximationRatio(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		ratio := 1 - 1/math.E
		for seed := int64(0); seed < 15; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 6+rng.Intn(5), 3, variant)
			k := 1 + rng.Intn(4)
			sol, err := Solve(g, Options{Variant: variant, K: k})
			if err != nil {
				t.Fatal(err)
			}
			opt, _, err := baseline.BruteForce(g, variant, k, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Cover < ratio*opt.Cover-tol {
				t.Errorf("seed %d: greedy %g < %g * optimum %g", seed, sol.Cover, ratio, opt.Cover)
			}
			if sol.Cover > opt.Cover+tol {
				t.Errorf("seed %d: greedy %g exceeds optimum %g", seed, sol.Cover, opt.Cover)
			}
		}
	})
}

func TestGainsAreNonincreasing(t *testing.T) {
	// Submodularity implies greedy marginal gains never increase.
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 3+rng.Intn(30), 4, variant)
			sol, err := Solve(g, Options{Variant: variant, K: g.NumNodes()})
			if err != nil {
				return false
			}
			for i := 1; i < len(sol.Gains); i++ {
				if sol.Gains[i] > sol.Gains[i-1]+tol {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	})
}

func TestThresholdMode(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		g := fixture.Figure1Graph()
		sol, err := Solve(g, Options{Variant: variant, Threshold: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Reached {
			t.Fatal("threshold not reached")
		}
		if sol.Cover < 0.8-tol {
			t.Errorf("cover %g below threshold", sol.Cover)
		}
		// Minimality within the greedy order: the previous prefix was
		// below the threshold.
		if len(sol.Order) > 1 {
			prefix := sol.PrefixCover()
			if prefix[len(sol.Order)-1] >= 0.8 {
				t.Error("smaller prefix already met threshold")
			}
		}
		// 0.8 needs {B,D} (0.66 alone is not enough): expect size 2.
		if len(sol.Order) != 2 {
			t.Errorf("size = %d, want 2", len(sol.Order))
		}
	})
}

func TestThresholdUnreachable(t *testing.T) {
	// A graph whose total weight reachable is 1 always reaches any
	// threshold <= 1 when k is unlimited; cap k to make 0.99 unreachable.
	g := fixture.Figure1Graph()
	sol, err := Solve(g, Options{Variant: graph.Independent, Threshold: 0.99, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Reached {
		t.Error("threshold should not be reachable with k=1")
	}
	if len(sol.Order) != 1 {
		t.Errorf("order len = %d", len(sol.Order))
	}
}

func TestThresholdWithKCap(t *testing.T) {
	g := fixture.Figure1Graph()
	sol, err := Solve(g, Options{Variant: graph.Independent, Threshold: 0.5, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Reached {
		t.Error("0.5 should be reached")
	}
	if len(sol.Order) != 1 { // B alone covers 0.66
		t.Errorf("order len = %d, want 1", len(sol.Order))
	}
}

func TestOnSelectCallback(t *testing.T) {
	g := fixture.Figure1Graph()
	var steps []int
	var covers []float64
	sol, err := Solve(g, Options{
		Variant: graph.Independent,
		K:       3,
		OnSelect: func(step int, v int32, gain, cover float64) {
			steps = append(steps, step)
			covers = append(covers, cover)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || steps[0] != 1 || steps[2] != 3 {
		t.Errorf("steps = %v", steps)
	}
	if math.Abs(covers[len(covers)-1]-sol.Cover) > tol {
		t.Errorf("last callback cover %g != solution cover %g", covers[len(covers)-1], sol.Cover)
	}
}

func TestContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graphtest.Random(rng, 200, 4, graph.Independent)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(g, Options{Variant: graph.Independent, K: 100, Ctx: ctx}); err == nil {
		t.Fatal("want context error")
	}
}

func TestSolutionHelpers(t *testing.T) {
	g := fixture.Figure1Graph()
	sol, err := Solve(g, Options{Variant: graph.Independent, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	set := sol.Set(g.NumNodes())
	count := 0
	for _, in := range set {
		if in {
			count++
		}
	}
	if count != 2 {
		t.Errorf("Set count = %d", count)
	}
	prefix := sol.PrefixCover()
	if len(prefix) != 3 || prefix[0] != 0 {
		t.Fatalf("prefix = %v", prefix)
	}
	if math.Abs(prefix[2]-sol.Cover) > tol {
		t.Errorf("prefix end %g != cover %g", prefix[2], sol.Cover)
	}
}

// TestSolveCoverMatchesEvaluate cross-checks the incremental cover against
// the from-scratch formula on the solver's own output.
func TestSolveCoverMatchesEvaluate(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 3+rng.Intn(30), 4, variant)
			k := 1 + rng.Intn(g.NumNodes())
			opts := Options{Variant: variant, K: k}
			if seed%2 != 0 {
				opts.Strategy = StrategyScan
			}
			sol, err := Solve(g, opts)
			if err != nil {
				return false
			}
			fresh, err := cover.EvaluateSet(g, variant, sol.Order)
			if err != nil {
				return false
			}
			return math.Abs(fresh-sol.Cover) < 1e-9
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	})
}

func TestWorkersMoreThanNodes(t *testing.T) {
	g := fixture.Figure1Graph()
	sol, err := Solve(g, Options{Variant: graph.Independent, K: 2, Strategy: StrategyParallel, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Order) != 2 {
		t.Errorf("order len = %d", len(sol.Order))
	}
	seq, _ := Solve(g, Options{Variant: graph.Independent, K: 2, Strategy: StrategyScan})
	if !reflect.DeepEqual(seq.Order, sol.Order) {
		t.Error("oversubscribed workers changed the selection")
	}
}
