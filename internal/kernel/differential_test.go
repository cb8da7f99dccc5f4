// The cross-kernel differential suite: every strategy × variant ×
// pinned-set combination must produce the byte-identical ordered prefix and
// cover curve as a literal Algorithm 1 loop over the reference cover.Engine,
// and agree with the brute-force cover.Evaluate oracle, on synthetic
// presets, adversarial degree distributions, and fuzz-generated graphs.
// This suite is what lets the serving layers above trust the rewritten
// numerical core.
package kernel_test

import (
	"math"
	"math/rand"
	"testing"

	"prefcover/internal/cover"
	"prefcover/internal/fixture"
	"prefcover/internal/graph"
	"prefcover/internal/graphtest"
	"prefcover/internal/greedy"
	"prefcover/internal/synth"
)

// diffGraph is one corpus entry. Pins are node ids retained before the
// greedy fill (nil for the unpinned run).
type diffGraph struct {
	name string
	g    *graph.Graph
	k    int
}

// corpus builds the differential corpus for one variant: the paper fixture,
// synthetic presets, adversarial degree distributions, and seeded
// fuzz-style random graphs.
func corpus(t *testing.T, variant graph.Variant) []diffGraph {
	t.Helper()
	var out []diffGraph
	out = append(out, diffGraph{name: "figure1", g: fixture.Figure1Graph(), k: 3})

	spec, err := synth.PresetGraphSpec(synth.YC, 0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	spec.Variant = variant
	preset, err := synth.GenerateGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, diffGraph{name: "preset-yc", g: preset, k: 25})

	out = append(out,
		diffGraph{name: "star-hub", g: starGraph(200, variant), k: 12},
		diffGraph{name: "all-ties", g: tieGraph(64, variant), k: 16},
		diffGraph{name: "dense-16", g: denseGraph(16, variant), k: 8},
		diffGraph{name: "self-loops", g: selfLoopGraph(40, variant), k: 10},
		diffGraph{name: "zero-weights", g: zeroWeightGraph(50, variant), k: 10},
	)

	rng := rand.New(rand.NewSource(0xd1ff ^ int64(variant)))
	for trial := 0; trial < 20; trial++ {
		n := 16 + rng.Intn(150)
		maxDeg := 1 + rng.Intn(10)
		g := graphtest.Random(rng, n, maxDeg, variant)
		out = append(out, diffGraph{
			name: "random-" + string(rune('a'+trial%26)) + "-" + itoa(trial),
			g:    g,
			k:    1 + rng.Intn(n),
		})
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for ; n > 0; n /= 10 {
		b = append([]byte{byte('0' + n%10)}, b...)
	}
	return string(b)
}

// starGraph: one hub receiving an in-edge from every other node — the
// adversarial in-degree, where one candidate's gain sums n-1 terms.
func starGraph(n int, variant graph.Variant) *graph.Graph {
	b := graph.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddNode(1.0 / float64(n))
	}
	for v := int32(1); v < int32(n); v++ {
		w := 0.3 + 0.5*float64(v)/float64(n)
		if variant == graph.Normalized {
			w *= 0.9
		}
		b.AddEdge(v, 0, w)
	}
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

// tieGraph: identical weights everywhere, ring topology — every early
// iteration is a mass tie, so any kernel whose tie-break deviates from
// (gain desc, id asc) diverges immediately.
func tieGraph(n int, variant graph.Variant) *graph.Graph {
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddNode(1.0 / float64(n))
	}
	for v := int32(0); v < int32(n); v++ {
		b.AddEdge(v, (v+1)%int32(n), 0.25)
		b.AddEdge(v, (v+int32(n)-1)%int32(n), 0.25)
	}
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

// denseGraph: complete digraph — maximal in-degree relative to n.
func denseGraph(n int, variant graph.Variant) *graph.Graph {
	b := graph.NewBuilder(n, n*n)
	for i := 0; i < n; i++ {
		b.AddNode(float64(i+1) * 2 / float64(n*(n+1)))
	}
	for v := int32(0); v < int32(n); v++ {
		for u := int32(0); u < int32(n); u++ {
			if u == v {
				continue
			}
			w := 0.1 + 0.02*float64(u)
			if variant == graph.Normalized {
				w /= float64(n) // keep outgoing sums below 1
			}
			b.AddEdge(v, u, w)
		}
	}
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

// selfLoopGraph: the builder permits self-loops; the Gain loops must skip
// them (the own-weight term already accounts for self-coverage).
func selfLoopGraph(n int, variant graph.Variant) *graph.Graph {
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddNode(1.0 / float64(n))
	}
	for v := int32(0); v < int32(n); v++ {
		b.AddEdge(v, v, 0.4)
		b.AddEdge(v, (v+3)%int32(n), 0.3)
	}
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

// zeroWeightGraph: every third node has zero request weight — exercises
// the ItemCoverage conventions and zero-gain candidates.
func zeroWeightGraph(n int, variant graph.Variant) *graph.Graph {
	b := graph.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			b.AddNode(0)
		} else {
			b.AddNode(1.0 / float64(n))
		}
	}
	for v := int32(0); v < int32(n); v++ {
		b.AddEdge(v, (v+1)%int32(n), 0.5)
	}
	g, err := b.Build(graph.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

// strategyConfigs returns the five deterministic strategies under test.
// lazyflat runs with Workers 4 so `go test -race` exercises the
// chunk-parallel heap build with real goroutines.
func strategyConfigs() map[string]func(*greedy.Options) {
	return map[string]func(*greedy.Options){
		"scan":     func(o *greedy.Options) { o.Strategy = greedy.StrategyScan },
		"lazy":     func(o *greedy.Options) {},
		"parallel": func(o *greedy.Options) { o.Strategy = greedy.StrategyParallel; o.Workers = 3 },
		"lazyflat": func(o *greedy.Options) { o.Strategy = greedy.StrategyLazyFlat; o.Workers = 4 },
		"sketch":   func(o *greedy.Options) { o.Strategy = greedy.StrategySketch },
	}
}

// referenceSolve is the paper's Algorithm 1 written out over the reference
// cover.Engine (Algorithms 2–5), independent of every production solver:
// the pins first, in the given order, then up to k picks in all, each the
// argmax of Gain over the nodes outside S, gain descending and id
// ascending.
func referenceSolve(g *graph.Graph, variant graph.Variant, k int, pins []int32) *greedy.Solution {
	eng := cover.NewEngine(g, variant)
	n := int32(g.NumNodes())
	sol := &greedy.Solution{}
	for _, v := range pins {
		sol.Order = append(sol.Order, v)
		sol.Gains = append(sol.Gains, eng.Add(v))
	}
	for len(sol.Order) < k {
		best, bestGain := int32(-1), -1.0
		for v := int32(0); v < n; v++ {
			if eng.Retained(v) {
				continue
			}
			if gain := eng.Gain(v); gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best < 0 {
			break
		}
		eng.Add(best)
		sol.Order = append(sol.Order, best)
		sol.Gains = append(sol.Gains, bestGain)
	}
	sol.Cover = eng.Cover()
	sol.Coverage = make([]float64, n)
	for v := range sol.Coverage {
		sol.Coverage[v] = eng.ItemCoverage(int32(v))
	}
	return sol
}

// TestDifferentialAllKernels is the headline cross-kernel property: for
// every corpus graph × variant × {no pins, pinned}, all five strategy names
// produce the ordered prefix, per-step gains, cover curve and per-item
// coverage report of referenceSolve, bit for bit.
func TestDifferentialAllKernels(t *testing.T) {
	for _, variant := range []graph.Variant{graph.Independent, graph.Normalized} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			t.Parallel()
			for _, dg := range corpus(t, variant) {
				n := dg.g.NumNodes()
				pinSets := [][]int32{nil}
				if p := pinsFor(n, dg.k); p != nil {
					pinSets = append(pinSets, p)
				}
				for pi, pins := range pinSets {
					ref := referenceSolve(dg.g, variant, dg.k, pins)
					for name, mod := range strategyConfigs() {
						opts := greedy.Options{Variant: variant, K: dg.k, Pinned: pins}
						mod(&opts)
						sol, err := greedy.Solve(dg.g, opts)
						if err != nil {
							t.Fatalf("%s pins=%d %s: %v", dg.name, pi, name, err)
						}
						assertIdentical(t, dg.name, name, pi, ref, sol)
					}
					// The incremental cover must agree with the from-scratch
					// oracle evaluation of the final retained set.
					fresh, err := cover.EvaluateSet(dg.g, variant, ref.Order)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(fresh-ref.Cover) > 1e-9 {
						t.Fatalf("%s pins=%d: incremental cover %g != oracle %g", dg.name, pi, ref.Cover, fresh)
					}
				}
			}
		})
	}
}

// pinsFor returns a small deterministic pinned set, or nil when the budget
// cannot accommodate one.
func pinsFor(n, k int) []int32 {
	if k < 3 || n < 6 {
		return nil
	}
	a, b := int32(n/3), int32(2*n/3)
	if a == b {
		return nil
	}
	return []int32{b, a} // deliberately unsorted: pin order must be preserved
}

// assertIdentical demands byte-identical solver output, not tolerance
// agreement: Order, Gains, Cover, and the Coverage report must match the
// reference exactly, per the kernel's bit-identical arithmetic contract.
func assertIdentical(t *testing.T, gname, sname string, pins int, want, got *greedy.Solution) {
	t.Helper()
	if len(want.Order) != len(got.Order) {
		t.Fatalf("%s pins=%d %s: order length %d != %d", gname, pins, sname, len(got.Order), len(want.Order))
	}
	for i := range want.Order {
		if want.Order[i] != got.Order[i] {
			t.Fatalf("%s pins=%d %s: order diverges at step %d: %d != %d",
				gname, pins, sname, i, got.Order[i], want.Order[i])
		}
		if want.Gains[i] != got.Gains[i] {
			t.Fatalf("%s pins=%d %s: gain at step %d not bit-identical: %v != %v",
				gname, pins, sname, i, got.Gains[i], want.Gains[i])
		}
	}
	if want.Cover != got.Cover {
		t.Fatalf("%s pins=%d %s: cover not bit-identical: %v != %v", gname, pins, sname, got.Cover, want.Cover)
	}
	for v := range want.Coverage {
		if want.Coverage[v] != got.Coverage[v] {
			t.Fatalf("%s pins=%d %s: coverage[%d] not bit-identical: %v != %v",
				gname, pins, sname, v, got.Coverage[v], want.Coverage[v])
		}
	}
}

// TestDifferentialAgainstBruteForceOracle replays each solver selection
// against a from-scratch cover.Evaluate greedy: at every step, the node the
// solver chose must achieve the oracle-maximal marginal gain (within float
// tolerance — the oracle computes covers in product form, a different
// rounding path than the incremental engines).
func TestDifferentialAgainstBruteForceOracle(t *testing.T) {
	for _, variant := range []graph.Variant{graph.Independent, graph.Normalized} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0x0bf ^ int64(variant)))
			graphs := []diffGraph{
				{name: "figure1", g: fixture.Figure1Graph(), k: 3},
				{name: "ties", g: tieGraph(12, variant), k: 5},
				{name: "dense", g: denseGraph(10, variant), k: 5},
			}
			for trial := 0; trial < 6; trial++ {
				n := 8 + rng.Intn(24)
				graphs = append(graphs, diffGraph{
					name: "random-" + itoa(trial),
					g:    graphtest.Random(rng, n, 1+rng.Intn(5), variant),
					k:    1 + rng.Intn(5),
				})
			}
			for _, dg := range graphs {
				pinSets := [][]int32{nil}
				if p := pinsFor(dg.g.NumNodes(), dg.k); p != nil {
					pinSets = append(pinSets, p)
				}
				for _, pins := range pinSets {
					for name, mod := range strategyConfigs() {
						opts := greedy.Options{Variant: variant, K: dg.k, Pinned: pins}
						mod(&opts)
						sol, err := greedy.Solve(dg.g, opts)
						if err != nil {
							t.Fatalf("%s/%s: %v", dg.name, name, err)
						}
						checkOracleGreedy(t, dg.name, name, dg.g, variant, pins, sol)
					}
				}
			}
		})
	}
}

// checkOracleGreedy verifies the solver's trajectory step by step against
// brute-force evaluation: following the solver's own prefix, the node it
// picked must be within tolerance of the best-possible marginal gain.
func checkOracleGreedy(t *testing.T, gname, sname string, g *graph.Graph, variant graph.Variant, pins []int32, sol *greedy.Solution) {
	t.Helper()
	const tol = 1e-9
	n := g.NumNodes()
	retained := make([]bool, n)
	cur := 0.0
	pinned := make(map[int32]bool, len(pins))
	for _, v := range pins {
		pinned[v] = true
	}
	for step, v := range sol.Order {
		if pinned[v] {
			// Pins are forced, not argmaxes; just advance the oracle state.
			retained[v] = true
			cur = cover.Evaluate(g, variant, retained)
			continue
		}
		bestGain := math.Inf(-1)
		for u := int32(0); u < int32(n); u++ {
			if retained[u] {
				continue
			}
			retained[u] = true
			gain := cover.Evaluate(g, variant, retained) - cur
			retained[u] = false
			if gain > bestGain {
				bestGain = gain
			}
		}
		retained[v] = true
		next := cover.Evaluate(g, variant, retained)
		if gain := next - cur; gain < bestGain-tol {
			t.Fatalf("%s/%s step %d: solver picked %d with oracle gain %g, oracle max is %g",
				gname, sname, step, v, gain, bestGain)
		}
		cur = next
	}
	if math.Abs(cur-sol.Cover) > tol {
		t.Fatalf("%s/%s: final oracle cover %g != solver cover %g", gname, sname, cur, sol.Cover)
	}
}
