// Package prefcover selects a reduced e-commerce inventory that maximally
// covers consumer demand, implementing the Preference Cover problem of
// Gershtein, Milo and Novgorodov, "Inventory Reduction via Maximal Coverage
// in E-Commerce" (EDBT 2020).
//
// # Model
//
// Consumer preferences are a directed Graph: each item (node) carries its
// purchase probability, and an edge from item A to item B with weight p
// means that when A is unavailable a consumer requesting A buys B instead
// with probability p. Given a budget k, the library picks the k items whose
// retention maximizes the probability that a random request ends in a
// purchase — the cover C(S).
//
// Two Variant values interpret multi-alternative probabilities:
// Independent treats each alternative as an independent chance to save the
// sale; Normalized assumes each consumer accepts at most one alternative
// (per-item outgoing weights then sum to at most 1).
//
// # Usage
//
// Build a graph with a Builder (or adapt one from raw clickstream data with
// the prefcover/adapt package), then call Solve:
//
//	b := prefcover.NewBuilder(0, 0)
//	b.AddLabeledNode("tv-lg-19", 0.6)
//	b.AddLabeledNode("tv-lg-21", 0.4)
//	b.AddLabeledEdge("tv-lg-19", "tv-lg-21", 0.8)
//	g, err := b.Build(prefcover.BuildOptions{})
//	...
//	sol, err := prefcover.Solve(g, prefcover.Options{
//		Variant: prefcover.Independent,
//		K:       1,
//	})
//
// Solve runs the paper's greedy algorithm — (1-1/e)-optimal for
// Independent, max{1-1/e, 1-(1-k/n)^2} for Normalized — and returns the
// retained items in selection order together with per-item coverage
// reports. Setting Options.Threshold instead of K solves the complementary
// minimization problem (smallest set reaching a target cover).
// Options.Strategy selects how the greedy loop runs: lazy (CELF) evaluation
// on the flat solver kernel by default, the literal scan, or the
// goroutine-parallel scan; Options.Workers sizes the goroutine fan-out. All
// deterministic strategies return the identical solution.
//
// The package is a facade over the internal implementation; the exported
// names below are the supported, documented surface.
package prefcover

import (
	"context"
	"io"

	"prefcover/internal/baseline"
	"prefcover/internal/cover"
	"prefcover/internal/graph"
	"prefcover/internal/greedy"
)

// Variant selects the probabilistic interpretation of alternative edges.
type Variant = graph.Variant

// The two Preference Cover variants of the paper.
const (
	// Independent assumes alternative suitability events are independent
	// (IPC_k, paper Section 2.1).
	Independent = graph.Independent
	// Normalized assumes each consumer accepts at most one alternative
	// (NPC_k, paper Section 2.2).
	Normalized = graph.Normalized
)

// ParseVariant parses "independent"/"i"/"ipc" or "normalized"/"n"/"npc".
func ParseVariant(s string) (Variant, error) { return graph.ParseVariant(s) }

// Graph is an immutable preference graph. Construct one with a Builder or
// with the prefcover/adapt package.
type Graph = graph.Graph

// Builder accumulates items and alternative edges and produces a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder preallocated for the given counts.
func NewBuilder(nodeHint, edgeHint int) *Builder { return graph.NewBuilder(nodeHint, edgeHint) }

// BuildOptions controls Builder.Build (duplicate-edge policy, weight
// normalization, zero-edge dropping).
type BuildOptions = graph.BuildOptions

// Duplicate-edge policies for BuildOptions.
const (
	DupError   = graph.DupError
	DupKeepMax = graph.DupKeepMax
	DupSum     = graph.DupSum
	DupCombine = graph.DupCombine
)

// ValidateOptions controls Graph.Validate.
type ValidateOptions = graph.ValidateOptions

// Stats summarizes a preference graph (Table 2 columns plus degree and
// skew structure).
type Stats = graph.Stats

// ComputeStats scans a graph once and returns its Stats.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// Edge is a materialized directed edge.
type Edge = graph.Edge

// Options configures Solve. Exactly one of K (budget mode) or Threshold
// (minimization mode) must be positive; setting both caps the minimization
// at K items.
type Options = greedy.Options

// Solution is the solver output: retained items in selection order, their
// marginal gains, the total cover, and per-item coverage.
type Solution = greedy.Solution

// ProgressEvent describes one completed solver iteration: the selected
// node, its marginal gain, C(S) so far, and the per-iteration work
// counters (candidates evaluated; lazy-heap re-evaluations). Subscribe
// via Options.Progress.
type ProgressEvent = greedy.ProgressEvent

// Strategy names reported in ProgressEvent.Strategy. The first five are
// also valid Options.Strategy values (see ParseStrategy); StrategyLazy, the
// default, runs on the data-oriented gain kernels of internal/kernel, and
// StrategyLazyFlat and StrategySketch are aliases of it.
const (
	StrategyScan       = greedy.StrategyScan
	StrategyParallel   = greedy.StrategyParallel
	StrategyLazy       = greedy.StrategyLazy
	StrategyLazyFlat   = greedy.StrategyLazyFlat
	StrategySketch     = greedy.StrategySketch
	StrategyStochastic = greedy.StrategyStochastic
	StrategyPinned     = greedy.StrategyPinned
)

// ParseStrategy validates an explicit Options.Strategy value ("" is the
// default, StrategyLazy).
func ParseStrategy(s string) (string, error) { return greedy.ParseStrategy(s) }

// Solve runs the greedy Preference Cover algorithm (paper Algorithm 1).
func Solve(g *Graph, opts Options) (*Solution, error) { return greedy.Solve(g, opts) }

// SolveContext is Solve with cancellation: the solver polls ctx once per
// iteration (and per worker chunk in the parallel scan) and, when it
// fires, returns the partial Solution selected so far — a valid greedy
// prefix with Reached == false — together with ctx.Err(). Because the
// greedy order is incremental (Section 3.2), that prefix is itself the
// optimal-within-guarantee solution for its own size, so deadline-bounded
// serving can use it as a degraded answer.
func SolveContext(ctx context.Context, g *Graph, opts Options) (*Solution, error) {
	opts.Ctx = ctx
	return greedy.Solve(g, opts)
}

// MinCover solves the complementary minimization problem: the smallest
// retained set whose cover reaches threshold. It is shorthand for Solve
// with Options.Threshold set.
func MinCover(g *Graph, variant Variant, threshold float64) (*Solution, error) {
	return greedy.Solve(g, Options{Variant: variant, Threshold: threshold})
}

// Evaluate computes C(S) for an explicit retained set (node ids), without
// running the solver.
func Evaluate(g *Graph, variant Variant, set []int32) (float64, error) {
	return cover.EvaluateSet(g, variant, set)
}

// EvaluateLabels is Evaluate for labeled graphs.
func EvaluateLabels(g *Graph, variant Variant, labels []string) (float64, error) {
	set, err := LookupAll(g, labels)
	if err != nil {
		return 0, err
	}
	return cover.EvaluateSet(g, variant, set)
}

// PerItemCoverage returns, for every item, the probability its requests
// are matched by the given retained set (1 for retained items).
func PerItemCoverage(g *Graph, variant Variant, set []int32) ([]float64, error) {
	return cover.PerItemCoverage(g, variant, set)
}

// Baseline identifies one of the paper's comparison algorithms.
type Baseline uint8

// The baselines of the paper's experimental study (Section 5.3).
const (
	// BaselineTopKW retains the k best-selling items.
	BaselineTopKW Baseline = iota
	// BaselineTopKC retains the k items with the highest individual
	// coverage (own weight plus in-neighbor weight it matches).
	BaselineTopKC
)

// SolveBaseline runs a non-greedy baseline at budget k and returns its
// retained set and cover. For the Random baseline use the internal seedable
// API via the experiments harness; it is intentionally not part of the
// library surface.
func SolveBaseline(g *Graph, variant Variant, k int, which Baseline) ([]int32, float64, error) {
	var res *baseline.Result
	var err error
	switch which {
	case BaselineTopKC:
		res, err = baseline.TopKC(g, variant, k)
	default:
		res, err = baseline.TopKW(g, variant, k)
	}
	if err != nil {
		return nil, 0, err
	}
	return res.Set, res.Cover, nil
}

// LookupAll resolves labels to node ids, failing on the first unknown
// label.
func LookupAll(g *Graph, labels []string) ([]int32, error) {
	set := make([]int32, len(labels))
	for i, label := range labels {
		v, ok := g.Lookup(label)
		if !ok {
			return nil, &UnknownItemError{Label: label}
		}
		set[i] = v
	}
	return set, nil
}

// UnknownItemError reports a label missing from the graph.
type UnknownItemError struct{ Label string }

// Error implements error.
func (e *UnknownItemError) Error() string { return "prefcover: unknown item " + e.Label }

// Graph codecs, re-exported for convenience.

// WriteGraphTSV serializes a graph in the human-readable TSV format.
func WriteGraphTSV(w io.Writer, g *Graph) error { return graph.WriteTSV(w, g) }

// ReadGraphTSV parses the TSV format.
func ReadGraphTSV(r io.Reader, opts BuildOptions) (*Graph, error) { return graph.ReadTSV(r, opts) }

// WriteGraphJSON serializes a graph as one JSON document.
func WriteGraphJSON(w io.Writer, g *Graph) error { return graph.WriteJSON(w, g) }

// ReadGraphJSON parses the JSON format.
func ReadGraphJSON(r io.Reader, opts BuildOptions) (*Graph, error) { return graph.ReadJSON(r, opts) }

// WriteGraphBinary serializes a graph in the compact binary format used
// for large catalogs.
func WriteGraphBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// ReadGraphBinary parses the binary format.
func ReadGraphBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }
