// Package adapt is the public Data Adaptation Engine (paper Section 5.2,
// Figure 2): it turns raw clickstreams into preference graphs and
// recommends the Preference Cover variant that fits the data, using the
// paper's two rules — the >= 90% single-alternative share for Normalized
// and the < 0.1 average pairwise normalized mutual information for
// Independent.
package adapt

import (
	"context"

	"prefcover"
	"prefcover/clickstream"
	iadapt "prefcover/internal/adapt"
)

// Options configures BuildGraph.
type Options = iadapt.Options

// Report describes the constructed graph and, when Options.ComputeFitness
// is set, the variant-recommendation statistics.
type Report = iadapt.Report

// Decision thresholds from paper Section 5.2.
const (
	// NormalizedFitThreshold is the minimum single-alternative session
	// share for the Normalized variant to fit.
	NormalizedFitThreshold = iadapt.NormalizedFitThreshold
	// IndependentFitThreshold is the maximum average pairwise NMI for the
	// Independent variant to fit.
	IndependentFitThreshold = iadapt.IndependentFitThreshold
)

// BuildGraph drains the clickstream and constructs a preference graph:
// node weights are purchase shares, an edge A->B carries the fraction of
// A-purchase sessions that clicked B (fractional 1/t counting under
// Normalized), and browse-only sessions are ignored.
func BuildGraph(src clickstream.Source, opts Options) (*prefcover.Graph, *Report, error) {
	return iadapt.BuildGraph(src, opts)
}

// Pipeline is the end-to-end flow of the paper's Figure 2: adapt the raw
// data, choose the variant, run the solver, and return everything a
// curation decision needs.
type Pipeline struct {
	// Variant forces a variant; when nil the recommendation rules decide
	// (falling back to Independent when neither rule fires).
	Variant *prefcover.Variant
	// K and Threshold select budget or minimization mode, as in
	// prefcover.Options.
	K         int
	Threshold float64
	// Workers sizes the solver's goroutine fan-out (see
	// prefcover.Options.Workers).
	Workers int
	// MinPurchases filters noise edges from rarely purchased items.
	MinPurchases int
	// Progress, if non-nil, receives the solver's per-iteration
	// ProgressEvent stream (see prefcover.Options.Progress).
	Progress func(prefcover.ProgressEvent)
}

// PipelineResult carries every artifact of a Pipeline run.
type PipelineResult struct {
	Graph   *prefcover.Graph
	Report  *Report
	Variant prefcover.Variant
	// VariantConfident is false when neither fitness rule fired and the
	// Independent default was used.
	VariantConfident bool
	Solution         *prefcover.Solution
}

// Run executes the pipeline on the clickstream.
func (p *Pipeline) Run(src clickstream.Source) (*PipelineResult, error) {
	return p.RunContext(context.Background(), src)
}

// RunContext is Run with cancellation: both the adaptation drain and the
// solver poll ctx, so a deadline bounds the whole Figure 2 flow. On
// cancellation the error is ctx.Err(); no partial result is returned
// (unlike prefcover.SolveContext, the adapt stage has no useful prefix).
func (p *Pipeline) RunContext(ctx context.Context, src clickstream.Source) (*PipelineResult, error) {
	g, rep, variant, confident, err := iadapt.Adapt(src, p.Variant, Options{MinPurchases: p.MinPurchases, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	sol, err := prefcover.SolveContext(ctx, g, prefcover.Options{
		Variant:   variant,
		K:         p.K,
		Threshold: p.Threshold,
		Workers:   p.Workers,
		Progress:  p.Progress,
	})
	if err != nil {
		return nil, err
	}
	return &PipelineResult{Graph: g, Report: rep, Variant: variant, VariantConfident: confident, Solution: sol}, nil
}

// NotRewindableError reports that variant auto-selection needed a second
// pass over a non-rewindable source; buffer the stream into a
// clickstream.Store (clickstream.ReadAll) or force a Variant.
type NotRewindableError = iadapt.NotRewindableError
