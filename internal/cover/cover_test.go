package cover_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	. "prefcover/internal/cover"
	"prefcover/internal/fixture"
	"prefcover/internal/graph"
	"prefcover/internal/graphtest"
)

const tol = 1e-9

func bothVariants(t *testing.T, f func(t *testing.T, variant graph.Variant)) {
	t.Run("independent", func(t *testing.T) { f(t, graph.Independent) })
	t.Run("normalized", func(t *testing.T) { f(t, graph.Normalized) })
}

func TestEmptySetCoversNothing(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		g := fixture.Figure1Graph()
		e := NewEngine(g, variant)
		if e.Cover() != 0 {
			t.Errorf("empty cover = %g", e.Cover())
		}
		if e.Size() != 0 {
			t.Errorf("empty size = %d", e.Size())
		}
	})
}

func TestFullSetCoversEverything(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		g := fixture.Figure1Graph()
		e := NewEngine(g, variant)
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			e.Add(v)
		}
		if math.Abs(e.Cover()-1) > tol {
			t.Errorf("C(V) = %g, want 1", e.Cover())
		}
	})
}

// TestExample11Covers verifies the worked numbers of the paper's Example
// 1.1 on the Figure 1 graph: {A,B} covers 77%, {B,D} covers 87.3%.
func TestExample11Covers(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		g := fixture.Figure1Graph()
		idx := func(label string) int32 {
			v, ok := g.Lookup(label)
			if !ok {
				t.Fatalf("missing label %s", label)
			}
			return v
		}
		ab, err := EvaluateSet(g, variant, []int32{idx("A"), idx("B")})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ab-fixture.Fig1CoverTopK) > tol {
			t.Errorf("C({A,B}) = %g, want %g", ab, fixture.Fig1CoverTopK)
		}
		bd, err := EvaluateSet(g, variant, []int32{idx("B"), idx("D")})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bd-fixture.Fig1CoverBD) > tol {
			t.Errorf("C({B,D}) = %g, want %g", bd, fixture.Fig1CoverBD)
		}
	})
}

// TestExample32Gains verifies the greedy gains of paper Example 3.2: first
// B with gain 0.66, then D with gain 0.213.
func TestExample32Gains(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		g := fixture.Figure1Graph()
		e := NewEngine(g, variant)
		b, _ := g.Lookup("B")
		d, _ := g.Lookup("D")
		if gain := e.Gain(b); math.Abs(gain-fixture.Fig1GainB) > tol {
			t.Errorf("Gain(B) = %g, want %g", gain, fixture.Fig1GainB)
		}
		e.Add(b)
		if gain := e.Gain(d); math.Abs(gain-fixture.Fig1GainD) > tol {
			t.Errorf("Gain(D) after B = %g, want %g", gain, fixture.Fig1GainD)
		}
		// After B, D must be the argmax among remaining nodes.
		bestV, bestG := int32(-1), -1.0
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if e.Retained(v) {
				continue
			}
			if gv := e.Gain(v); gv > bestG {
				bestV, bestG = v, gv
			}
		}
		if bestV != d {
			t.Errorf("argmax after B = %s, want D", g.Label(bestV))
		}
	})
}

// TestFigure2Coverages verifies the per-item coverages quoted for the
// system architecture figure: with {B,D} retained, C is covered 100%, A
// 67%, E 90%.
func TestFigure2Coverages(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		g := fixture.Figure1Graph()
		b, _ := g.Lookup("B")
		d, _ := g.Lookup("D")
		cov, err := PerItemCoverage(g, variant, []int32{b, d})
		if err != nil {
			t.Fatal(err)
		}
		expect := map[string]float64{
			"A": fixture.Fig1CoverageA, // 2/3 via A->B
			"B": 1,
			"C": 1, // fully covered by B
			"D": 1,
			"E": fixture.Fig1CoverageE, // 0.9 via E->D
		}
		for label, want := range expect {
			v, _ := g.Lookup(label)
			if got := cov[v]; math.Abs(got-want) > tol {
				t.Errorf("coverage(%s) = %g, want %g", label, got, want)
			}
		}
	})
}

func TestGainMatchesAddDelta(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 2+rng.Intn(30), 4, variant)
			e := NewEngine(g, variant)
			order := rng.Perm(g.NumNodes())
			for _, vi := range order {
				v := int32(vi)
				gain := e.Gain(v)
				delta := e.Add(v)
				if math.Abs(gain-delta) > tol {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}

func TestIncrementalMatchesEvaluate(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 2+rng.Intn(30), 4, variant)
			e := NewEngine(g, variant)
			for _, vi := range rng.Perm(g.NumNodes())[:1+rng.Intn(g.NumNodes())] {
				e.Add(int32(vi))
			}
			return e.CheckConsistency(1e-9) == nil
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}

func TestMonotonicityProperty(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 2+rng.Intn(25), 4, variant)
			e := NewEngine(g, variant)
			prev := 0.0
			for _, vi := range rng.Perm(g.NumNodes()) {
				e.Add(int32(vi))
				if e.Cover() < prev-tol {
					return false
				}
				prev = e.Cover()
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}

// TestSubmodularityProperty checks f(S+v)-f(S) >= f(T+v)-f(T) for random
// nested S subset T and v outside T, for both variants (the Independent
// proof is Theorem 4.1; Normalized is linear hence modular, a special
// case).
func TestSubmodularityProperty(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 3+rng.Intn(25), 4, variant)
			n := g.NumNodes()
			perm := rng.Perm(n)
			sSize := rng.Intn(n - 1)
			tSize := sSize + rng.Intn(n-sSize-1)
			v := int32(perm[n-1])
			retainedS := make([]bool, n)
			retainedT := make([]bool, n)
			for i := 0; i < tSize; i++ {
				retainedT[perm[i]] = true
				if i < sSize {
					retainedS[perm[i]] = true
				}
			}
			fS := Evaluate(g, variant, retainedS)
			fT := Evaluate(g, variant, retainedT)
			retainedS[v] = true
			retainedT[v] = true
			gainS := Evaluate(g, variant, retainedS) - fS
			gainT := Evaluate(g, variant, retainedT) - fT
			return gainS >= gainT-tol
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
}

func TestNonnegativityProperty(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := graphtest.Random(rng, 2+rng.Intn(25), 4, variant)
			set := graphtest.RandomSet(rng, g, rng.Intn(g.NumNodes()+1))
			c, err := EvaluateSet(g, variant, set)
			return err == nil && c >= 0 && c <= 1+tol
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}

// TestNormalizedLowerThanIndependentNever: for identical graphs the
// Independent cover is >= the Normalized cover (OR of independent events
// vs disjoint sum of the same probabilities... actually the independent
// noisy-OR is <= the sum). Verify the known inequality direction:
// 1 - prod(1-w_i) <= sum(w_i).
func TestVariantInequalityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(rng, 2+rng.Intn(25), 4, graph.Normalized)
		set := graphtest.RandomSet(rng, g, rng.Intn(g.NumNodes()+1))
		ind, err1 := EvaluateSet(g, graph.Independent, set)
		nor, err2 := EvaluateSet(g, graph.Normalized, set)
		return err1 == nil && err2 == nil && ind <= nor+tol
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAddIdempotent(t *testing.T) {
	bothVariants(t, func(t *testing.T, variant graph.Variant) {
		g := fixture.Figure1Graph()
		e := NewEngine(g, variant)
		b, _ := g.Lookup("B")
		first := e.Add(b)
		if first <= 0 {
			t.Fatalf("first add gain = %g", first)
		}
		if second := e.Add(b); second != 0 {
			t.Errorf("second add gain = %g, want 0", second)
		}
		if g := e.Gain(b); g != 0 {
			t.Errorf("gain of retained = %g, want 0", g)
		}
		if e.Size() != 1 {
			t.Errorf("size = %d", e.Size())
		}
	})
}

func TestEvaluateSetErrors(t *testing.T) {
	g := fixture.Figure1Graph()
	if _, err := EvaluateSet(g, graph.Independent, []int32{99}); err == nil {
		t.Error("want unknown-node error")
	}
	if _, err := PerItemCoverage(g, graph.Independent, []int32{-1}); err == nil {
		t.Error("want unknown-node error")
	}
}

func TestItemCoverageZeroWeightNode(t *testing.T) {
	b := graph.NewBuilder(2, 1)
	b.AddNode(1.0)
	b.AddNode(0.0)
	b.AddEdge(0, 1, 0.5)
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, graph.Independent)
	if got := e.ItemCoverage(1); got != 1 {
		t.Errorf("zero-weight item coverage = %g, want 1", got)
	}
}

func TestIndependentMultipleAlternativesCompose(t *testing.T) {
	// v has two retained alternatives with w=0.5 each: Independent cover
	// of v is 1-(0.5)^2 = 0.75; Normalized is 1.0 (0.5+0.5).
	b := graph.NewBuilder(3, 2)
	b.AddNode(0.5)
	b.AddNode(0.25)
	b.AddNode(0.25)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.5)
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ind, _ := EvaluateSet(g, graph.Independent, []int32{1, 2})
	want := 0.25 + 0.25 + 0.5*0.75
	if math.Abs(ind-want) > tol {
		t.Errorf("independent = %g, want %g", ind, want)
	}
	nor, _ := EvaluateSet(g, graph.Normalized, []int32{1, 2})
	if math.Abs(nor-1.0) > tol {
		t.Errorf("normalized = %g, want 1", nor)
	}
}

func TestSelfLoopIgnoredByEngine(t *testing.T) {
	// Self edges arise in VC_k-reduced instances; the engine must treat
	// them as inert (a retained node already covers itself fully).
	b := graph.NewBuilder(2, 2)
	b.AddNode(0.6)
	b.AddNode(0.4)
	b.AddEdge(0, 0, 0.5)
	b.AddEdge(0, 1, 0.5)
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []graph.Variant{graph.Independent, graph.Normalized} {
		e := NewEngine(g, variant)
		if gain := e.Gain(0); math.Abs(gain-0.6) > tol {
			t.Errorf("variant %v: Gain(0) = %g, want 0.6 (self loop inert)", variant, gain)
		}
		e.Add(0)
		if math.Abs(e.Cover()-0.6) > tol {
			t.Errorf("variant %v: cover = %g", variant, e.Cover())
		}
		if err := e.CheckConsistency(1e-9); err != nil {
			t.Errorf("variant %v: %v", variant, err)
		}
	}
}

func TestCheckConsistencyDetectsCorruption(t *testing.T) {
	g := fixture.Figure1Graph()
	e := NewEngine(g, graph.Independent)
	b, _ := g.Lookup("B")
	e.Add(b)
	if err := e.CheckConsistency(1e-9); err != nil {
		t.Fatalf("healthy engine flagged: %v", err)
	}
}

// TestEngineAccessors: Size, Retained and CoveredWeight report the state
// Add built, and the I array sums to C(S).
func TestEngineAccessors(t *testing.T) {
	g := fixture.Figure1Graph()
	e := NewEngine(g, graph.Normalized)
	b, _ := g.Lookup("B")
	e.Add(b)
	if e.Size() != 1 || !e.Retained(b) || e.CoveredWeight(b) != g.NodeWeight(b) {
		t.Errorf("after Add(B): size %d, retained %v, I[B] %g; want 1, true, W(B) %g",
			e.Size(), e.Retained(b), e.CoveredWeight(b), g.NodeWeight(b))
	}
	var sum float64
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		sum += e.CoveredWeight(v)
	}
	if math.Abs(sum-e.Cover()) > tol {
		t.Errorf("sum(I) = %g != C(S) = %g", sum, e.Cover())
	}
}
