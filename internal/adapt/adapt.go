// Package adapt implements the paper's Data Adaptation Engine (Section 5.2,
// Figures 2 and 3): it turns a raw clickstream into a preference graph and
// recommends which problem variant (Independent or Normalized) fits the
// data.
//
// Construction rules, exactly as in the paper:
//
//   - Nodes are items. A node's weight is its share of purchases:
//     purchases(item) / totalPurchases.
//   - A directed edge A -> B exists iff some session purchased A and clicked
//     B; its weight is the fraction of A-purchase sessions in which B was
//     clicked. (Edges deliberately point purchased -> clicked: when all
//     items are in stock the purchased item is the requested one, and the
//     clicked items are the alternatives that were considered.)
//   - Under the Normalized interpretation, a session with t > 1 distinct
//     alternative clicks contributes 1/t of a click to each edge, so that
//     per-node outgoing weights sum to at most 1.
//   - Browse-only sessions (no purchase) carry no purchase intent and are
//     skipped (paper footnote 5).
package adapt

import (
	"context"
	"fmt"
	"sort"

	"prefcover/internal/clickstream"
	"prefcover/internal/graph"
	"prefcover/internal/nmi"
	"prefcover/internal/trace"
)

// Options configures BuildGraph.
type Options struct {
	// Variant selects the edge-weight accounting. Normalized splits
	// multi-alternative sessions 1/t per click; Independent counts each
	// click fully.
	Variant graph.Variant
	// MinPurchases drops items purchased fewer than this many times from
	// the *edge source* role (their outgoing correlations are noise, paper
	// Section 5.2 last paragraph); the items themselves are kept as nodes.
	// 0 disables the filter.
	MinPurchases int
	// ClickDiscount is the corrective factor of Section 5.2: viewing every
	// click as an intention to buy overestimates the willingness to
	// purchase an alternative, so platforms with richer signals (dwell
	// time, add-to-cart) can discount the click-derived edge weights by a
	// constant in (0,1]. 0 means 1 (no discount).
	ClickDiscount float64
	// ComputeFitness additionally computes the variant-recommendation
	// statistics (single-alternative share and average pairwise NMI).
	// Costs an extra O(sum t^2) pass over the stored pairs.
	ComputeFitness bool
	// Ctx, if non-nil, allows cancellation: the clickstream drain polls it
	// every ctxCheckSessions sessions and BuildGraph then returns ctx.Err(),
	// so multi-gigabyte adaptations started with a deadline stop promptly.
	Ctx context.Context
}

// Report describes the constructed graph and, when requested, the variant
// fitness statistics of Section 5.2.
type Report struct {
	Sessions         int
	PurchaseSessions int
	Items            int
	Edges            int

	// SingleAlternativeShare is the fraction of purchase sessions with at
	// most one distinct alternative click. >= 0.90 means the Normalized
	// variant fits the data (paper's 90% rule).
	SingleAlternativeShare float64
	// MeanPairwiseNMI is the node-weighted average over purchased items of
	// the mean pairwise normalized mutual information between that item's
	// alternatives. < 0.10 means the Independent variant fits the data.
	MeanPairwiseNMI float64
	// FitnessComputed reports whether the two statistics above were
	// calculated.
	FitnessComputed bool
}

// Thresholds from Section 5.2.
const (
	NormalizedFitThreshold  = 0.90
	IndependentFitThreshold = 0.10
)

// RecommendVariant applies the paper's decision rule to a computed Report.
// The Normalized rule is checked first (it is the stricter structural
// condition); if neither rule fires, Independent is returned as the more
// permissive default along with ok=false.
func (r *Report) RecommendVariant() (graph.Variant, bool) {
	if !r.FitnessComputed {
		return graph.Independent, false
	}
	if r.SingleAlternativeShare >= NormalizedFitThreshold {
		return graph.Normalized, true
	}
	if r.MeanPairwiseNMI < IndependentFitThreshold {
		return graph.Independent, true
	}
	return graph.Independent, false
}

// itemCounts accumulates per-item purchase counts and per-ordered-pair
// fractional click counts.
type itemCounts struct {
	purchases map[string]float64
	// clicks[src][dst] = (possibly fractional) number of src-purchase
	// sessions in which dst was clicked.
	clicks map[string]map[string]float64
	// perItemSessions stores, for items needing NMI, each session's
	// distinct alternative set (as sorted label slices).
	perItemSessions map[string][][]string
	items           map[string]struct{}
}

// BuildGraph drains src and constructs the preference graph.
func BuildGraph(src clickstream.Source, opts Options) (*graph.Graph, *Report, error) {
	if opts.ClickDiscount < 0 || opts.ClickDiscount > 1 {
		return nil, nil, fmt.Errorf("adapt: click discount %g outside (0,1]", opts.ClickDiscount)
	}
	c := itemCounts{
		purchases: make(map[string]float64),
		clicks:    make(map[string]map[string]float64),
		items:     make(map[string]struct{}),
	}
	if opts.ComputeFitness {
		c.perItemSessions = make(map[string][][]string)
	}
	rep := &Report{}
	var scratch []string
	singleAlt := 0
	for {
		if rep.Sessions%ctxCheckSessions == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				return nil, nil, err
			}
		}
		s, err := src.Next()
		if err != nil {
			if err == clickstream.ErrEOF {
				break
			}
			return nil, nil, fmt.Errorf("adapt: reading clickstream: %w", err)
		}
		rep.Sessions++
		for _, click := range s.Clicks {
			c.items[click] = struct{}{}
		}
		if !s.HasPurchase() {
			continue
		}
		rep.PurchaseSessions++
		c.items[s.Purchase] = struct{}{}
		c.purchases[s.Purchase]++
		scratch = s.AlternativeClicks(scratch)
		if len(scratch) <= 1 {
			singleAlt++
		}
		if len(scratch) > 0 {
			m := c.clicks[s.Purchase]
			if m == nil {
				m = make(map[string]float64)
				c.clicks[s.Purchase] = m
			}
			contribution := 1.0
			if opts.Variant == graph.Normalized && len(scratch) > 1 {
				// The paper "normalizes" multi-alternative sessions by
				// counting each click as a 1/t fraction.
				contribution = 1.0 / float64(len(scratch))
			}
			for _, alt := range scratch {
				m[alt] += contribution
			}
		}
		if opts.ComputeFitness && len(scratch) >= 0 {
			alts := append([]string(nil), scratch...)
			sort.Strings(alts)
			c.perItemSessions[s.Purchase] = append(c.perItemSessions[s.Purchase], alts)
		}
	}
	if rep.PurchaseSessions == 0 {
		return nil, nil, fmt.Errorf("adapt: clickstream contains no purchase sessions")
	}
	rep.SingleAlternativeShare = float64(singleAlt) / float64(rep.PurchaseSessions)
	rep.Items = len(c.items)

	g, err := buildFromCounts(&c, opts, rep)
	if err != nil {
		return nil, nil, err
	}
	rep.Edges = g.NumEdges()
	if opts.ComputeFitness {
		// The NMI pass is the other superlinear stage; re-check before it.
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, nil, err
		}
		rep.MeanPairwiseNMI = meanPairwiseNMI(&c, float64(rep.PurchaseSessions))
		rep.FitnessComputed = true
	}
	return g, rep, nil
}

// Adapt is the one adaptation flow of paper Figure 2, shared by
// prefcoverd, the public Pipeline and the CLI. With forced set it builds
// the graph under that variant. Otherwise it builds with the fitness
// statistics, recommends a variant by the paper's rules and, when
// Normalized wins, rewinds src and rebuilds with Normalized's fractional
// click counting, keeping the first pass's fitness statistics in the
// report. The rebuild needs a source with a Reset method (a
// clickstream.Store has one); any other source fails with
// *NotRewindableError. The returned bool is false when neither rule fired
// and the Independent default was used. When opts.Ctx carries a trace
// span, the recommendation and the rebuild record child spans of it.
func Adapt(src clickstream.Source, forced *graph.Variant, opts Options) (*graph.Graph, *Report, graph.Variant, bool, error) {
	if forced != nil {
		opts.Variant, opts.ComputeFitness = *forced, false
		g, rep, err := BuildGraph(src, opts)
		return g, rep, *forced, true, err
	}
	opts.Variant, opts.ComputeFitness = graph.Independent, true
	g, rep, err := BuildGraph(src, opts)
	if err != nil {
		return nil, nil, 0, false, err
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	_, span := trace.StartSpan(ctx, "recommend")
	variant, confident := rep.RecommendVariant()
	span.SetAttr("variant", variant.String())
	span.SetAttr("confident", confident)
	span.End()
	if variant != graph.Normalized {
		return g, rep, variant, confident, nil
	}
	rewinder, ok := src.(interface{ Reset() })
	if !ok {
		return nil, nil, 0, false, &NotRewindableError{}
	}
	_, span = trace.StartSpan(ctx, "rebuild")
	rewinder.Reset()
	opts.Variant, opts.ComputeFitness = graph.Normalized, false
	g, rebuilt, err := BuildGraph(src, opts)
	span.End()
	if err != nil {
		return nil, nil, 0, false, err
	}
	rebuilt.SingleAlternativeShare = rep.SingleAlternativeShare
	rebuilt.MeanPairwiseNMI = rep.MeanPairwiseNMI
	rebuilt.FitnessComputed = rep.FitnessComputed
	return g, rebuilt, variant, confident, nil
}

// NotRewindableError reports that variant auto-selection needed a second
// pass over a non-rewindable source; buffer the stream into a
// clickstream.Store (clickstream.ReadAll) or force a variant.
type NotRewindableError struct{}

// Error implements error.
func (*NotRewindableError) Error() string {
	return "adapt: variant auto-selection requires a rewindable source (buffer with clickstream.ReadAll or set Pipeline.Variant)"
}

// ctxCheckSessions is the cancellation poll stride of the drain loop.
const ctxCheckSessions = 1024

// ctxErr is a non-blocking poll of an optional context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// buildFromCounts converts the accumulated counts to a graph. Labels are
// added in sorted order so construction is deterministic regardless of map
// iteration order.
func buildFromCounts(c *itemCounts, opts Options, rep *Report) (*graph.Graph, error) {
	labels := make([]string, 0, len(c.items))
	for item := range c.items {
		labels = append(labels, item)
	}
	sort.Strings(labels)

	var totalPurchases float64
	for _, n := range c.purchases {
		totalPurchases += n
	}
	b := graph.NewBuilder(len(labels), 0)
	for _, label := range labels {
		b.AddLabeledNode(label, c.purchases[label]/totalPurchases)
	}
	for _, src := range labels {
		n := c.purchases[src]
		if n == 0 || (opts.MinPurchases > 0 && n < float64(opts.MinPurchases)) {
			continue
		}
		dsts := c.clicks[src]
		// Deterministic edge order.
		keys := make([]string, 0, len(dsts))
		for dst := range dsts {
			keys = append(keys, dst)
		}
		sort.Strings(keys)
		discount := opts.ClickDiscount
		if discount == 0 {
			discount = 1
		}
		for _, dst := range keys {
			w := dsts[dst] / n
			if w > 1 {
				w = 1 // a click can co-occur at most once per session
			}
			b.AddLabeledEdge(src, dst, w*discount)
		}
	}
	return b.Build(graph.BuildOptions{DropZeroEdges: true})
}

// nmiMinSessions is the minimum number of purchase sessions an item needs
// before its pairwise NMI is trusted: mutual information estimated from few
// observations is biased upward, and the paper's measure weights by
// popularity precisely so that "noisier" rare items do not skew the
// decision.
const nmiMinSessions = 20

// meanPairwiseNMI implements the paper's independence measure: for each
// purchased item, the average NMI over all pairs of its alternatives
// (computed across that item's sessions), then the purchase-weighted mean
// over items.
func meanPairwiseNMI(c *itemCounts, totalPurchases float64) float64 {
	// Items in sorted order: a float sum depends on its order, and map
	// order would make the report differ in its last bits run to run.
	items := make([]string, 0, len(c.perItemSessions))
	for item := range c.perItemSessions {
		items = append(items, item)
	}
	sort.Strings(items)
	var overall nmi.WeightedMean
	for _, item := range items {
		sessions := c.perItemSessions[item]
		if len(sessions) < nmiMinSessions {
			continue
		}
		alternatives := distinctAlternatives(sessions)
		if len(alternatives) < 2 {
			continue
		}
		var perItem float64
		pairs := 0
		for i := 0; i < len(alternatives); i++ {
			for j := i + 1; j < len(alternatives); j++ {
				joint := jointTable(sessions, alternatives[i], alternatives[j])
				v, err := nmi.Normalized(joint)
				if err != nil {
					continue
				}
				perItem += v
				pairs++
			}
		}
		if pairs == 0 {
			continue
		}
		overall.Add(perItem/float64(pairs), c.purchases[item]/totalPurchases)
	}
	return overall.Mean()
}

func distinctAlternatives(sessions [][]string) []string {
	seen := make(map[string]struct{})
	for _, alts := range sessions {
		for _, a := range alts {
			seen[a] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// jointTable builds the 2x2 contingency table of clicking a vs clicking b
// across the item's sessions. Each sessions[i] is sorted.
func jointTable(sessions [][]string, a, b string) nmi.BinaryJoint {
	var j nmi.BinaryJoint
	for _, alts := range sessions {
		ca := containsSorted(alts, a)
		cb := containsSorted(alts, b)
		switch {
		case ca && cb:
			j.N11++
		case ca:
			j.N10++
		case cb:
			j.N01++
		default:
			j.N00++
		}
	}
	return j
}

func containsSorted(sorted []string, x string) bool {
	i := sort.SearchStrings(sorted, x)
	return i < len(sorted) && sorted[i] == x
}
