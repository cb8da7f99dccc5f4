package graph_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	. "prefcover/internal/graph"
	"prefcover/internal/graphtest"
)

// buildTiny returns the 5-node graph used across tests:
//
//	0 -> 1 (0.5)   0 -> 2 (0.25)
//	1 -> 2 (1.0)
//	3 -> 0 (0.1)
//	weights: 0.4, 0.3, 0.2, 0.05, 0.05 (node 4 isolated)
func buildTiny(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5, 4)
	for _, w := range []float64{0.4, 0.3, 0.2, 0.05, 0.05} {
		b.AddNode(w)
	}
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.25)
	b.AddEdge(1, 2, 1.0)
	b.AddEdge(3, 0, 0.1)
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := buildTiny(t)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if w := g.NodeWeight(0); w != 0.4 {
		t.Errorf("NodeWeight(0) = %g, want 0.4", w)
	}
	if got := g.TotalWeight(); math.Abs(got-1) > 1e-12 {
		t.Errorf("TotalWeight = %g, want 1", got)
	}
}

func TestOutEdgesSortedAndQueryable(t *testing.T) {
	g := buildTiny(t)
	dsts, ws := g.OutEdges(0)
	if len(dsts) != 2 || dsts[0] != 1 || dsts[1] != 2 {
		t.Fatalf("OutEdges(0) dsts = %v, want [1 2]", dsts)
	}
	if ws[0] != 0.5 || ws[1] != 0.25 {
		t.Fatalf("OutEdges(0) weights = %v", ws)
	}
	if w, ok := g.EdgeWeight(0, 2); !ok || w != 0.25 {
		t.Errorf("EdgeWeight(0,2) = %g,%v want 0.25,true", w, ok)
	}
	if _, ok := g.EdgeWeight(2, 0); ok {
		t.Errorf("EdgeWeight(2,0) should not exist")
	}
	if _, ok := g.EdgeWeight(4, 0); ok {
		t.Errorf("EdgeWeight from isolated node should not exist")
	}
}

func TestInEdges(t *testing.T) {
	g := buildTiny(t)
	srcs, ws := g.InEdges(2)
	if len(srcs) != 2 || srcs[0] != 0 || srcs[1] != 1 {
		t.Fatalf("InEdges(2) srcs = %v, want [0 1]", srcs)
	}
	if ws[0] != 0.25 || ws[1] != 1.0 {
		t.Fatalf("InEdges(2) weights = %v", ws)
	}
	if d := g.InDegree(0); d != 1 {
		t.Errorf("InDegree(0) = %d, want 1", d)
	}
	if d := g.MaxInDegree(); d != 2 {
		t.Errorf("MaxInDegree = %d, want 2", d)
	}
}

func TestDegrees(t *testing.T) {
	g := buildTiny(t)
	wantOut := []int{2, 1, 0, 1, 0}
	wantIn := []int{1, 1, 2, 0, 0}
	for v := int32(0); v < 5; v++ {
		if d := g.OutDegree(v); d != wantOut[v] {
			t.Errorf("OutDegree(%d) = %d, want %d", v, d, wantOut[v])
		}
		if d := g.InDegree(v); d != wantIn[v] {
			t.Errorf("InDegree(%d) = %d, want %d", v, d, wantIn[v])
		}
	}
}

func TestLabeledGraph(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddLabeledNode("tv-lg-19", 0.6)
	b.AddLabeledNode("tv-lg-21", 0.4)
	b.AddLabeledEdge("tv-lg-19", "tv-lg-21", 0.8)
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.Labeled() {
		t.Fatal("graph should be labeled")
	}
	v, ok := g.Lookup("tv-lg-21")
	if !ok || v != 1 {
		t.Fatalf("Lookup = %d,%v want 1,true", v, ok)
	}
	if got := g.Label(0); got != "tv-lg-19" {
		t.Errorf("Label(0) = %q", got)
	}
	if _, ok := g.Lookup("absent"); ok {
		t.Error("Lookup of absent label should fail")
	}
}

func TestUnlabeledLabelSynthesized(t *testing.T) {
	g := buildTiny(t)
	if got := g.Label(3); got != "#3" {
		t.Errorf("Label(3) = %q, want #3", got)
	}
	if v, ok := g.Lookup(g.Label(3)); !ok || v != 3 {
		t.Errorf("Lookup(Label(3)) = %d,%v want 3,true", v, ok)
	}
}

// TestLookupSynthesizedLabels: an unlabeled graph resolves exactly the
// labels Label synthesizes — "#" plus a canonical decimal in [0, n) — and a
// labeled graph resolves only its own labels.
func TestLookupSynthesizedLabels(t *testing.T) {
	g := buildTiny(t) // 5 nodes
	for label, want := range map[string]int32{
		"#0": 0, "#4": 4, // #0 and #n-1
		"#5": -1, "#-1": -1, "#01": -1, "#3x": -1, // #n, sign, leading zero, junk
		"#": -1, "3": -1, "#+3": -1, "# 3": -1, "#99999999999": -1, "": -1,
	} {
		v, ok := g.Lookup(label)
		if want < 0 {
			if ok {
				t.Errorf("Lookup(%q) = %d, want not found", label, v)
			}
			continue
		}
		if !ok || v != want {
			t.Errorf("Lookup(%q) = %d,%v want %d,true", label, v, ok, want)
		}
	}

	b := NewBuilder(0, 0)
	b.AddLabeledNode("a", 0.5)
	b.AddLabeledNode("#0", 0.5)
	labeled, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := labeled.Lookup("#0"); !ok || v != 1 {
		t.Errorf("labeled Lookup(#0) = %d,%v want its own label's node 1", v, ok)
	}
	if _, ok := labeled.Lookup("#1"); ok {
		t.Error("labeled graph resolved a synthesized index label")
	}
}

func TestBuilderNodeUpsert(t *testing.T) {
	b := NewBuilder(0, 0)
	a := b.Node("a")
	a2 := b.Node("a")
	if a != a2 {
		t.Fatalf("Node(a) twice gave %d then %d", a, a2)
	}
	b.SetWeight(a, 0.7)
	b.AddWeight(a, 0.1)
	bID := b.Node("b")
	b.SetWeight(bID, 0.2)
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if w := g.NodeWeight(a); math.Abs(w-0.8) > 1e-12 {
		t.Errorf("weight after upsert = %g, want 0.8", w)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("duplicate label", func(t *testing.T) {
		b := NewBuilder(0, 0)
		b.AddLabeledNode("x", 0.5)
		b.AddLabeledNode("x", 0.5)
		if _, err := b.Build(BuildOptions{}); err == nil {
			t.Fatal("want duplicate-label error")
		}
	})
	t.Run("mixing labeled and unlabeled", func(t *testing.T) {
		b := NewBuilder(0, 0)
		b.AddNode(0.5)
		b.AddLabeledNode("x", 0.5)
		if _, err := b.Build(BuildOptions{}); err == nil {
			t.Fatal("want mixing error")
		}
	})
	t.Run("edge to unknown node", func(t *testing.T) {
		b := NewBuilder(0, 0)
		b.AddNode(1)
		b.AddEdge(0, 7, 0.5)
		if _, err := b.Build(BuildOptions{}); err == nil {
			t.Fatal("want unknown-node error")
		}
	})
	t.Run("set weight on unknown node", func(t *testing.T) {
		b := NewBuilder(0, 0)
		b.SetWeight(3, 0.5)
		if _, err := b.Build(BuildOptions{}); err == nil {
			t.Fatal("want unknown-node error")
		}
	})
	t.Run("empty graph", func(t *testing.T) {
		b := NewBuilder(0, 0)
		if _, err := b.Build(BuildOptions{}); err == nil {
			t.Fatal("want empty-graph error")
		}
	})
	t.Run("duplicate edge rejected by default", func(t *testing.T) {
		b := NewBuilder(0, 0)
		b.AddNode(0.5)
		b.AddNode(0.5)
		b.AddEdge(0, 1, 0.5)
		b.AddEdge(0, 1, 0.25)
		if _, err := b.Build(BuildOptions{}); err == nil {
			t.Fatal("want duplicate-edge error")
		}
	})
}

func TestDuplicatePolicies(t *testing.T) {
	build := func(policy DuplicatePolicy) float64 {
		b := NewBuilder(0, 0)
		b.AddNode(0.5)
		b.AddNode(0.5)
		b.AddEdge(0, 1, 0.5)
		b.AddEdge(0, 1, 0.25)
		g, err := b.Build(BuildOptions{Duplicates: policy})
		if err != nil {
			t.Fatalf("Build(%d): %v", policy, err)
		}
		if g.NumEdges() != 1 {
			t.Fatalf("policy %d kept %d edges", policy, g.NumEdges())
		}
		w, _ := g.EdgeWeight(0, 1)
		return w
	}
	if w := build(DupKeepMax); w != 0.5 {
		t.Errorf("DupKeepMax = %g, want 0.5", w)
	}
	if w := build(DupSum); w != 0.75 {
		t.Errorf("DupSum = %g, want 0.75", w)
	}
	if w := build(DupCombine); math.Abs(w-0.625) > 1e-12 {
		t.Errorf("DupCombine = %g, want 0.625", w)
	}
}

func TestNormalizeWeights(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddNode(3)
	b.AddNode(1)
	g, err := b.Build(BuildOptions{NormalizeWeights: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if w := g.NodeWeight(0); math.Abs(w-0.75) > 1e-12 {
		t.Errorf("normalized weight = %g, want 0.75", w)
	}
	b2 := NewBuilder(0, 0)
	b2.AddNode(0)
	if _, err := b2.Build(BuildOptions{NormalizeWeights: true}); err == nil {
		t.Fatal("normalizing zero-sum weights should fail")
	}
}

func TestDropZeroEdges(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddNode(0.5)
	b.AddNode(0.5)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 0, 0.5)
	g, err := b.Build(BuildOptions{DropZeroEdges: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestValidate(t *testing.T) {
	mk := func(nodeW []float64, edges []Edge) *Graph {
		b := NewBuilder(len(nodeW), len(edges))
		for _, w := range nodeW {
			b.AddNode(w)
		}
		for _, e := range edges {
			b.AddEdge(e.Src, e.Dst, e.W)
		}
		g, err := b.Build(BuildOptions{})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return g
	}
	t.Run("valid simplex", func(t *testing.T) {
		g := mk([]float64{0.5, 0.5}, []Edge{{0, 1, 0.5}})
		if err := g.Validate(ValidateOptions{RequireSimplex: true}); err != nil {
			t.Errorf("Validate: %v", err)
		}
	})
	t.Run("not simplex", func(t *testing.T) {
		g := mk([]float64{0.5, 0.6}, nil)
		if err := g.Validate(ValidateOptions{RequireSimplex: true}); err == nil {
			t.Error("want simplex violation")
		}
	})
	t.Run("node weight out of range", func(t *testing.T) {
		g := mk([]float64{1.5, 0.5}, nil)
		if err := g.Validate(ValidateOptions{}); err == nil {
			t.Error("want node-weight violation")
		}
	})
	t.Run("edge weight out of range", func(t *testing.T) {
		g := mk([]float64{0.5, 0.5}, []Edge{{0, 1, 1.5}})
		if err := g.Validate(ValidateOptions{}); err == nil {
			t.Error("want edge-weight violation")
		}
	})
	t.Run("normalized out sum", func(t *testing.T) {
		g := mk([]float64{0.5, 0.25, 0.25}, []Edge{{0, 1, 0.7}, {0, 2, 0.7}})
		if err := g.Validate(ValidateOptions{Variant: Independent}); err != nil {
			t.Errorf("independent should allow out sum > 1: %v", err)
		}
		if err := g.Validate(ValidateOptions{Variant: Normalized}); err == nil {
			t.Error("normalized should reject out sum > 1")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		g := mk([]float64{1}, []Edge{{0, 0, 0.5}})
		if err := g.Validate(ValidateOptions{}); err == nil {
			t.Error("want self-loop violation")
		}
		if err := g.Validate(ValidateOptions{AllowSelfLoops: true}); err != nil {
			t.Errorf("AllowSelfLoops: %v", err)
		}
	})
}

func TestVariantString(t *testing.T) {
	if Independent.String() != "independent" || Normalized.String() != "normalized" {
		t.Error("variant strings wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should still print")
	}
	for _, tc := range []struct {
		in   string
		want Variant
	}{{"independent", Independent}, {"i", Independent}, {"ipc", Independent}, {"normalized", Normalized}, {"n", Normalized}, {"npc", Normalized}} {
		got, err := ParseVariant(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseVariant(%q) = %v,%v", tc.in, got, err)
		}
	}
	if _, err := ParseVariant("bogus"); err == nil {
		t.Error("want parse error")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := buildTiny(t)
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("Edges len = %d", len(edges))
	}
	b := NewBuilder(g.NumNodes(), len(edges))
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		b.AddNode(g.NodeWeight(v))
	}
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst, e.W)
	}
	g2, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if !equalGraphs(g, g2) {
		t.Error("rebuild from Edges() differs")
	}
}

// equalGraphs compares structure and weights exactly.
func equalGraphs(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := int32(0); v < int32(a.NumNodes()); v++ {
		if a.NodeWeight(v) != b.NodeWeight(v) {
			return false
		}
		ad, aw := a.OutEdges(v)
		bd, bw := b.OutEdges(v)
		if len(ad) != len(bd) {
			return false
		}
		for i := range ad {
			if ad[i] != bd[i] || aw[i] != bw[i] {
				return false
			}
		}
	}
	return true
}

func TestRandomGraphValid(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64, variantBit bool) bool {
		rng := rand.New(rand.NewSource(seed))
		variant := Independent
		if variantBit {
			variant = Normalized
		}
		g := graphtest.Random(rng, 2+rng.Intn(40), 4, variant)
		return g.Validate(ValidateOptions{Variant: variant, RequireSimplex: true}) == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestInOutConsistencyProperty(t *testing.T) {
	// Every out-edge must appear exactly once as an in-edge with the same
	// weight, and vice versa.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.Random(rng, 2+rng.Intn(50), 5, Independent)
		count := 0
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			dsts, ws := g.OutEdges(v)
			for i, u := range dsts {
				srcs, iws := g.InEdges(u)
				found := false
				for j, s := range srcs {
					if s == v && iws[j] == ws[i] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
				count++
			}
		}
		return count == g.NumEdges()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDerivedSlot: the derived slot stores init's value once, a nil init
// only reads it, and a graph derived by a copy helper starts empty, since
// state derived from the original does not hold for the copy.
func TestDerivedSlot(t *testing.T) {
	g := buildTiny(t)
	if v := Derived(g, nil); v != nil {
		t.Fatalf("empty slot read %v", v)
	}
	first := new(int)
	if v := Derived(g, func() any { return first }); v != first {
		t.Fatalf("first Derived returned %v, want init's value", v)
	}
	if v := Derived(g, func() any { return new(int) }); v != first {
		t.Fatal("a second init replaced the stored value")
	}
	if v := Derived(g, nil); v != first {
		t.Fatal("a read without init missed the stored value")
	}
	rn, err := g.Renormalize()
	if err != nil {
		t.Fatal(err)
	}
	if v := Derived(rn, nil); v != nil {
		t.Fatal("Renormalize's copy carried the derived slot over")
	}
}
