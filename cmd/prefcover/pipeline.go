package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"prefcover"
	"prefcover/adapt"
	"prefcover/clickstream"
	iadapt "prefcover/internal/adapt"
	"prefcover/internal/greedy"
	"prefcover/internal/trace"
)

// readClickstream opens and fully buffers a clickstream in the given
// format (auto-detected from the first byte when format is "auto": JSONL
// lines start with '{').
func readClickstream(path, format string) (*clickstream.Store, error) {
	file, closeIn, err := openIn(path)
	if err != nil {
		return nil, err
	}
	defer closeIn()
	f, err := maybeGzip(file, path)
	if err != nil {
		return nil, err
	}
	var src clickstream.Source
	switch format {
	case "tsv":
		src = clickstream.NewTSVReader(f)
	case "jsonl":
		src = clickstream.NewJSONLReader(f)
	case "auto":
		br, first, err := peekFirst(f)
		if err != nil {
			return nil, fmt.Errorf("reading clickstream: %w", err)
		}
		if first == '{' {
			src = clickstream.NewJSONLReader(br)
		} else {
			src = clickstream.NewTSVReader(br)
		}
	default:
		return nil, fmt.Errorf("unknown clickstream format %q (want tsv, jsonl or auto)", format)
	}
	return clickstream.ReadAll(src)
}

func runStats(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	var (
		in     = fs.String("in", "-", "input clickstream (default stdin)")
		format = fs.String("format", "auto", "input format: tsv, jsonl or auto")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := readClickstream(*in, *format)
	if err != nil {
		return err
	}
	st, err := clickstream.CollectStats(store)
	if err != nil {
		return err
	}
	fmt.Printf("sessions:  %d\n", st.Sessions)
	fmt.Printf("purchases: %d (%.2f%% of sessions)\n", st.Purchases, pct(st.Purchases, st.Sessions))
	fmt.Printf("items:     %d\n", st.Items)
	fmt.Printf("clicks:    %d\n", st.Clicks)
	fmt.Printf("max alternatives per session: %d\n", st.MaxAlternatives)
	fmt.Printf("single-alternative share:     %.1f%% (normalized fit needs >= %.0f%%)\n",
		100*st.SingleAlternativeShare, 100*adapt.NormalizedFitThreshold)
	return nil
}

func runAdapt(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("adapt", flag.ExitOnError)
	var (
		in      = fs.String("in", "-", "input clickstream (default stdin)")
		format  = fs.String("format", "auto", "input format: tsv, jsonl or auto")
		out     = fs.String("out", "-", "output graph file (default stdout)")
		gformat = fs.String("graph-format", "tsv", "graph output format: tsv, json or binary")
		variant = fs.String("variant", "", "force variant (independent/normalized); empty = recommend from data")
		minPur  = fs.Int("min-purchases", 0, "drop outgoing edges of items purchased fewer times than this")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := readClickstream(*in, *format)
	if err != nil {
		return err
	}
	var forced *prefcover.Variant
	if *variant != "" {
		v, err := prefcover.ParseVariant(*variant)
		if err != nil {
			return err
		}
		forced = &v
	}
	g, rep, chosen, confident, err := iadapt.Adapt(store, forced, adapt.Options{MinPurchases: *minPur, Ctx: ctx})
	if err != nil {
		return err
	}
	if forced == nil {
		fmt.Fprintf(os.Stderr, "recommended variant: %s (confident=%v, single-alt=%.1f%%, nmi=%.3f)\n",
			chosen, confident, 100*rep.SingleAlternativeShare, rep.MeanPairwiseNMI)
	}
	fmt.Fprintf(os.Stderr, "graph: %d items, %d edges (variant %s)\n", g.NumNodes(), g.NumEdges(), chosen)
	w, closeOut, err := createOut(*out)
	if err != nil {
		return err
	}
	switch *gformat {
	case "tsv":
		err = prefcover.WriteGraphTSV(w, g)
	case "json":
		err = prefcover.WriteGraphJSON(w, g)
	case "binary":
		err = prefcover.WriteGraphBinary(w, g)
	default:
		err = fmt.Errorf("unknown graph format %q", *gformat)
	}
	if err != nil {
		closeOut()
		return err
	}
	return closeOut()
}

// readGraph loads a graph in tsv, json or binary format (auto-detected).
func readGraph(path string) (*prefcover.Graph, error) {
	file, closeIn, err := openIn(path)
	if err != nil {
		return nil, err
	}
	defer closeIn()
	f, err := maybeGzip(file, path)
	if err != nil {
		return nil, err
	}
	br, first, err := peekFirst(f)
	if err != nil {
		return nil, fmt.Errorf("reading graph: %w", err)
	}
	switch first {
	case '{':
		return prefcover.ReadGraphJSON(br, prefcover.BuildOptions{})
	case 'P':
		return prefcover.ReadGraphBinary(br)
	default:
		return prefcover.ReadGraphTSV(br, prefcover.BuildOptions{})
	}
}

func runSolve(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	var (
		in         = fs.String("in", "-", "input graph (default stdin)")
		variant    = fs.String("variant", "independent", "variant: independent or normalized")
		k          = fs.Int("k", 0, "retained-set budget (budget mode)")
		threshold  = fs.Float64("threshold", 0, "target cover in (0,1] (minimization mode)")
		workers    = fs.Int("workers", 1, "solver goroutine fan-out (with -lazy=false, >1 selects the parallel scan)")
		lazy       = fs.Bool("lazy", true, "use lazy (CELF) evaluation; false selects the scan (alias of -strategy)")
		strategy   = fs.String("strategy", "", "explicit strategy: scan, parallel or lazy (default; lazyflat and sketch are aliases); overrides -lazy")
		stochastic = fs.Float64("stochastic", 0, "stochastic-greedy epsilon in (0,1); randomized, overrides -lazy")
		seed       = fs.Int64("seed", 1, "seed for -stochastic")
		pruneMinW  = fs.Float64("prune-min-weight", 0, "drop alternative edges below this weight before solving")
		pruneMaxD  = fs.Int("prune-max-degree", 0, "keep only this many heaviest alternatives per item before solving")
		pinFile    = fs.String("pin", "", "file with must-stock labels, one per line, retained before the greedy fill")
		affected   = fs.Int("affected", 10, "how many most-affected non-retained items to report")
		setOut     = fs.String("set-out", "", "also write the retained labels, one per line, to this file")
		timeout    = fs.Duration("timeout", 0, "abort the solve after this long (0 = no deadline); also canceled by SIGINT/SIGTERM")
		progress   = fs.Int("progress", 0, "log solver progress to stderr every N selections (0 = off)")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event JSON of this run (parse/solve phases, one span per iteration) to this file; load in Perfetto")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	v, err := prefcover.ParseVariant(*variant)
	if err != nil {
		return err
	}
	// The flight recorder wraps the whole run; phase spans below only
	// materialize when -trace is set (root stays nil otherwise).
	var root *trace.Span
	if *traceOut != "" {
		root = trace.New(1).Root("prefcover solve", "")
		defer func() {
			root.End()
			if err := writeTraceFile(*traceOut, root); err != nil {
				fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			}
		}()
	}
	parseSpan := root.Child("parse")
	g, err := readGraph(*in)
	if err != nil {
		return err
	}
	parseSpan.SetAttr("nodes", g.NumNodes())
	parseSpan.SetAttr("edges", g.NumEdges())
	parseSpan.End()
	if *pruneMinW > 0 || *pruneMaxD > 0 {
		sparsifySpan := root.Child("sparsify")
		res, err := prefcover.Sparsify(g, prefcover.SparsifyOptions{
			MinWeight: *pruneMinW, MaxOutDegree: *pruneMaxD,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pruned %d -> %d edges (certified max cover loss %.5f)\n",
			res.EdgesBefore, res.EdgesAfter, res.LossBound)
		g = res.Graph
		sparsifySpan.SetAttr("edges", g.NumEdges())
		sparsifySpan.End()
	}
	opts := prefcover.Options{Variant: v, K: *k, Threshold: *threshold, Workers: *workers}
	if *stochastic > 0 {
		// Randomized, so no deterministic strategy applies; an explicit
		// -strategy still conflicts and fails validation.
		opts.Strategy, opts.StochasticEpsilon, opts.Seed = *strategy, *stochastic, *seed
	} else if opts.Strategy, err = greedy.ResolveStrategy(*strategy, *lazy, *workers); err != nil {
		return err
	}
	if *pinFile != "" {
		data, err := os.ReadFile(*pinFile)
		if err != nil {
			return err
		}
		var labels []string
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				labels = append(labels, line)
			}
		}
		opts.Pinned, err = prefcover.LookupAll(g, labels)
		if err != nil {
			return err
		}
	}
	solveSpan := root.Child("solve")
	recordIteration := trace.IterationRecorder(solveSpan)
	logProgress := func(prefcover.ProgressEvent) {}
	if *progress > 0 {
		every := *progress
		logProgress = func(ev prefcover.ProgressEvent) {
			if ev.Step%every == 0 {
				fmt.Fprintf(os.Stderr, "step %d: %s gain=%.6f cover=%.4f evals=%d (+%d, reeval %d)\n",
					ev.Step, ev.Strategy, ev.Gain, ev.Cover, ev.TotalEvals, ev.Evaluated, ev.Reevaluated)
			}
		}
	}
	if *progress > 0 || root != nil {
		opts.Progress = func(ev prefcover.ProgressEvent) {
			recordIteration(ev)
			logProgress(ev)
		}
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	sol, err := prefcover.SolveContext(ctx, g, opts)
	if sol != nil {
		solveSpan.SetAttr("iterations", len(sol.Order))
		solveSpan.SetAttr("gainEvals", sol.GainEvals)
		solveSpan.SetAttr("cover", sol.Cover)
	}
	solveSpan.End()
	if err != nil {
		if sol != nil && len(sol.Order) > 0 {
			fmt.Fprintf(os.Stderr, "solve stopped after %d selections (cover %.4f): %v\n",
				len(sol.Order), sol.Cover, err)
		}
		return err
	}
	if *threshold > 0 && !sol.Reached {
		fmt.Fprintf(os.Stderr, "warning: threshold %.3f not reachable, best cover %.4f\n", *threshold, sol.Cover)
	}
	reportSpan := root.Child("report")
	report := prefcover.NewReport(g, v, sol, *affected)
	if _, err := report.WriteTo(os.Stdout); err != nil {
		return err
	}
	reportSpan.End()
	if *setOut != "" {
		var sb strings.Builder
		for _, item := range report.Retained {
			sb.WriteString(item.Label)
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(*setOut, []byte(sb.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func runEval(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	var (
		in      = fs.String("in", "-", "input graph (default stdin)")
		variant = fs.String("variant", "independent", "variant: independent or normalized")
		setPath = fs.String("set", "", "file with retained labels, one per line (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *setPath == "" {
		return fmt.Errorf("-set is required")
	}
	v, err := prefcover.ParseVariant(*variant)
	if err != nil {
		return err
	}
	g, err := readGraph(*in)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*setPath)
	if err != nil {
		return err
	}
	var labels []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			labels = append(labels, line)
		}
	}
	sort.Strings(labels)
	cover, err := prefcover.EvaluateLabels(g, v, labels)
	if err != nil {
		return err
	}
	fmt.Printf("retained: %d items\ncover:    %.4f (%.2f%%)\n", len(labels), cover, 100*cover)
	return nil
}

// writeTraceFile dumps one completed trace tree as Chrome trace-event
// JSON and reports where it went.
func writeTraceFile(path string, root *trace.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeSpan(f, root); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s (load in chrome://tracing or ui.perfetto.dev)\n",
		root.NumSpans(), path)
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// peekFirst buffers r and returns its first byte without consuming it, so
// the reader a format sniff picks still sees the whole stream. An empty
// stream gives io.EOF.
func peekFirst(r io.Reader) (*bufio.Reader, byte, error) {
	br := bufio.NewReader(r)
	b, err := br.Peek(1)
	if err != nil {
		return nil, 0, err
	}
	return br, b[0], nil
}
