// Package greedy implements the paper's Algorithm 1: the incremental greedy
// scheme that solves both Preference Cover variants with approximation
// guarantees — (1 - 1/e), optimal, for the Independent variant (Theorem
// 4.1) and max{1 - 1/e, 1 - (1 - k/n)^2} for the Normalized variant
// (via the VC_k equivalence of Theorem 3.1).
//
// The deterministic strategies all produce identical selections:
//
//   - sequential scan: each iteration evaluates Gain for every node outside
//     S and picks the maximum (the literal Algorithm 1, one worker);
//   - parallel scan: each iteration fills every gain with a striped
//     goroutine fan-out and takes the argmax — the parallelization described
//     in the paper's Performance Analysis (complexity O(k + nkD/N) for N
//     workers);
//   - lazy (CELF) evaluation, the default: because C is monotone submodular
//     in both variants, stale upper bounds stored in a max-heap let most
//     Gain re-evaluations be skipped without changing the selection.
//     lazyflat and sketch are aliases of it.
//
// Every strategy, stochastic greedy included, runs on one reused flat
// kernel state (internal/kernel) per solve. The reference cover.Engine has
// no solver of its own: the kernel differential suite holds every strategy
// to a literal Algorithm 1 loop over it.
//
// Determinism: ties are broken toward the smaller node id under every
// strategy, so runs are reproducible and strategies are interchangeable.
//
// The solver also directly solves the paper's complementary minimization
// problem (smallest S with C(S) >= threshold) by running until the
// threshold is met instead of for k iterations — avoiding the O(log n)
// binary-search overhead a black-box reduction would cost.
package greedy

import (
	"context"
	"errors"
	"fmt"
	"time"

	"prefcover/internal/graph"
	"prefcover/internal/kernel"
)

// Options configures Solve.
type Options struct {
	// Variant selects the cover semantics.
	Variant graph.Variant
	// K is the retained-set budget. If K > 0 and Threshold == 0, exactly
	// min(K, n) nodes are selected.
	K int
	// Threshold, when > 0, switches to the complementary minimization
	// problem: selection stops as soon as C(S) >= Threshold. If K is also
	// > 0 it acts as a cap. Threshold must be <= 1.
	Threshold float64
	// Workers sizes the goroutine fan-out: the parallel strategy's
	// per-pick gain stripes and the lazy strategies' cold heap build. <= 0
	// means GOMAXPROCS. It never selects a strategy.
	Workers int
	// Strategy selects the execution strategy (one of the values accepted
	// by ParseStrategy); empty means StrategyLazy. Mutually exclusive with
	// StochasticEpsilon.
	Strategy string
	// StochasticEpsilon, when > 0, selects stochastic greedy ("lazier than
	// lazy"): each iteration samples ceil((n/K)·ln(1/ε)) candidates and
	// takes the best, achieving (1 - 1/e - ε) in expectation with O(n
	// log(1/ε)) total gain evaluations. Randomized: the selection depends
	// on Seed and generally differs from the deterministic strategies.
	// Must be < 1.
	StochasticEpsilon float64
	// Seed drives stochastic greedy's sampling. Ignored by the
	// deterministic strategies.
	Seed int64
	// Pinned lists items that must be retained regardless of gain —
	// contractual must-stock SKUs, loss leaders, items under promotion.
	// They are added first (in the given order), count toward K, and the
	// greedy fill then optimizes around them. Duplicates are rejected.
	Pinned []int32
	// OnSelect, if non-nil, is invoked after every selection with the
	// 1-based step, the chosen node, its marginal gain, and C(S) so far.
	OnSelect func(step int, v int32, gain, cover float64)
	// Progress, if non-nil, receives a ProgressEvent after every selection
	// (pinned items included). It supersedes OnSelect with per-iteration
	// work counters; both hooks fire when both are set. The hook is called
	// synchronously from the solver goroutine and must not block.
	Progress func(ProgressEvent)
	// Ctx, if non-nil, allows cancellation. The solver polls it once per
	// iteration, once per worker chunk in the parallel scan, and
	// periodically inside lazy-heap rebuilds, so long solves return
	// promptly. On cancellation Solve returns the partial Solution built
	// so far (a valid greedy prefix, finalized with Cover and Coverage)
	// together with ctx.Err(); the partial solution has Reached == false.
	Ctx context.Context
}

// Solution is the solver output. Order lists retained nodes in selection
// order; because greedy is incremental, Order[:k'] is the greedy solution
// for every budget k' <= len(Order) (paper Section 3.2, Additional
// Advantages).
type Solution struct {
	Order []int32
	// Gains[i] is the marginal gain realized by Order[i].
	Gains []float64
	// Cover is C(S) for the full Order.
	Cover float64
	// Coverage[v] is the probability a request for v is matched (the
	// paper's I[v]/W(v) report).
	Coverage []float64
	// Reached reports whether the threshold was met (always true in pure
	// budget mode).
	Reached bool
	// GainEvals counts marginal-gain evaluations, the work measure used by
	// the lazy-vs-scan ablation.
	GainEvals int64
}

// Set returns the retained set as a membership slice.
func (s *Solution) Set(n int) []bool {
	out := make([]bool, n)
	for _, v := range s.Order {
		out[v] = true
	}
	return out
}

// PrefixCover returns C(Order[:k]) for every k in [0, len(Order)] using the
// recorded gains; PrefixCover()[k] is the cover of the size-k prefix.
func (s *Solution) PrefixCover() []float64 {
	out := make([]float64, len(s.Order)+1)
	for i, g := range s.Gains {
		out[i+1] = out[i] + g
	}
	return out
}

// Validate checks option sanity.
func (o *Options) Validate(n int) error {
	if o.K <= 0 && o.Threshold <= 0 {
		return errors.New("greedy: need K > 0 or Threshold > 0")
	}
	if o.K < 0 {
		return fmt.Errorf("greedy: negative K %d", o.K)
	}
	if !(o.Threshold >= 0 && o.Threshold <= 1) { // NaN fails too
		return fmt.Errorf("greedy: threshold %g outside (0,1]", o.Threshold)
	}
	if o.StochasticEpsilon < 0 || o.StochasticEpsilon >= 1 {
		return fmt.Errorf("greedy: stochastic epsilon %g outside [0,1)", o.StochasticEpsilon)
	}
	if _, err := ParseStrategy(o.Strategy); err != nil {
		return err
	}
	if o.Strategy != "" && o.StochasticEpsilon > 0 {
		return errors.New("greedy: Strategy and StochasticEpsilon are mutually exclusive")
	}
	if n == 0 {
		return errors.New("greedy: empty graph")
	}
	if len(o.Pinned) > 0 {
		if o.K > 0 && len(o.Pinned) > o.K {
			return fmt.Errorf("greedy: %d pinned items exceed K=%d", len(o.Pinned), o.K)
		}
		seen := make(map[int32]bool, len(o.Pinned))
		for _, v := range o.Pinned {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("greedy: pinned item %d outside [0,%d)", v, n)
			}
			if seen[v] {
				return fmt.Errorf("greedy: pinned item %d listed twice", v)
			}
			seen[v] = true
		}
	}
	return nil
}

// Solve runs Algorithm 1 on g.
func Solve(g *graph.Graph, opts Options) (*Solution, error) { return solve(g, opts, true) }

// SolveOrder is Solve without the per-item report: Solution.Coverage stays
// nil, which saves an n-sized array and its fill. kernel.Replay of the
// order reproduces the report bit for bit.
func SolveOrder(g *graph.Graph, opts Options) (*Solution, error) { return solve(g, opts, false) }

// solve is the one solve loop; dense asks finalize for Solution.Coverage.
func solve(g *graph.Graph, opts Options, dense bool) (*Solution, error) {
	if err := opts.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	maxPicks := opts.K
	if maxPicks <= 0 || maxPicks > n {
		maxPicks = n
	}
	strategy := opts.strategy()
	st := kernel.NewState(g, opts.Variant)
	defer st.Release()
	sol := &Solution{
		Order: make([]int32, 0, maxPicks),
		Gains: make([]float64, 0, maxPicks),
	}
	ctx := opts.Ctx
	if err := ctxErr(ctx); err != nil {
		return finalize(sol, st, dense), err
	}

	// Must-stock items come first; pickers are constructed afterwards so
	// their initial gain snapshots account for what pins already cover.
	for _, v := range opts.Pinned {
		gain := st.Add(v)
		sol.Order = append(sol.Order, v)
		sol.Gains = append(sol.Gains, gain)
		opts.notify(ProgressEvent{
			Step: len(sol.Order), Node: v, Gain: gain, Cover: st.Cover(),
			Strategy: StrategyPinned, TotalEvals: sol.GainEvals,
			// Pins skip the pick, so no remaining-gain bound exists yet.
			MaxRemainingGain: BoundUnavailable,
		})
	}
	reachedEarly := opts.Threshold > 0 && st.Cover() >= opts.Threshold-graph.Eps

	// Each pick also reports bound: an upper bound on the marginal gain of
	// any candidate still outside S after this selection (valid by
	// submodularity — gains only shrink), or BoundUnavailable when the
	// strategy cannot produce one cheaply. Solve forwards it as
	// ProgressEvent.MaxRemainingGain, which observers turn into the
	// f(OPT_k) <= C(S_i) + k·bound approximation certificate.
	var pick func() (v int32, gain, bound float64, ok bool, err error)
	var lazyHeapEvals func() int64 // nil unless a lazy variant
	switch strategy {
	case StrategyStochastic:
		sp := newStochasticPicker(st, sol, opts.K, opts.StochasticEpsilon, opts.Seed)
		pick = sp.pick
	case StrategyScan, StrategyParallel:
		// The scan is the literal Algorithm 1 loop, one worker evaluating
		// every candidate; the parallel scan stripes the same evaluation.
		workers := opts.Workers
		if strategy == StrategyScan {
			workers = 1
		}
		pick = func() (int32, float64, float64, bool, error) {
			sol.GainEvals += int64(n - st.Size())
			return st.ScanPick(ctx, workers)
		}
	default: // StrategyLazy
		kp := kernel.NewPicker(ctx, st, opts.Workers)
		// The picker tracks exact-gain evaluations itself (the heap build
		// may be satisfied from the memoized base heap with zero evals);
		// sync its cumulative counter into the solution around every pick.
		last := kp.Evals()
		sol.GainEvals += last
		pick = func() (int32, float64, float64, bool, error) {
			v, gain, bound, ok, err := kp.Pick()
			now := kp.Evals()
			sol.GainEvals += now - last
			last = now
			return v, gain, bound, ok, err
		}
		lazyHeapEvals = kp.Reevals
	}

	for step := len(sol.Order) + 1; step <= maxPicks && !reachedEarly; step++ {
		if err := ctxErr(ctx); err != nil {
			return finalize(sol, st, dense), err
		}
		evalsBefore := sol.GainEvals
		var reevalsBefore int64
		if lazyHeapEvals != nil {
			reevalsBefore = lazyHeapEvals()
		}
		// Stage clocks run only when someone is listening: without a
		// Progress hook the loop takes no time.Now readings at all.
		var pickStart time.Time
		if opts.Progress != nil {
			pickStart = time.Now()
		}
		v, gain, bound, ok, err := pick()
		if err != nil {
			// Canceled mid-pick: the in-flight round is discarded, so the
			// selections made so far are exactly the deterministic prefix.
			return finalize(sol, st, dense), err
		}
		if !ok {
			break // all nodes retained
		}
		var evalTime, commitTime time.Duration
		if opts.Progress != nil {
			picked := time.Now()
			evalTime = picked.Sub(pickStart)
			st.Add(v)
			commitTime = time.Since(picked)
		} else {
			st.Add(v)
		}
		sol.Order = append(sol.Order, v)
		sol.Gains = append(sol.Gains, gain)
		ev := ProgressEvent{
			Step: step, Node: v, Gain: gain, Cover: st.Cover(),
			Strategy:         strategy,
			Evaluated:        sol.GainEvals - evalsBefore,
			TotalEvals:       sol.GainEvals,
			EvalTime:         evalTime,
			CommitTime:       commitTime,
			MaxRemainingGain: bound,
		}
		if lazyHeapEvals != nil {
			ev.Reevaluated = lazyHeapEvals() - reevalsBefore
		}
		opts.notify(ev)
		if opts.Threshold > 0 && st.Cover() >= opts.Threshold-graph.Eps {
			reachedEarly = true
		}
	}
	if opts.Threshold <= 0 || reachedEarly {
		sol.Reached = true
	}
	finalize(sol, st, dense)
	return sol, nil
}

// notify dispatches both observation hooks for one selection.
func (o *Options) notify(ev ProgressEvent) {
	if o.OnSelect != nil {
		o.OnSelect(ev.Step, ev.Node, ev.Gain, ev.Cover)
	}
	if o.Progress != nil {
		o.Progress(ev)
	}
}

// finalize fills the solution fields derivable from the state so that
// both complete and cancellation-truncated solutions report Cover and,
// when dense, per-item Coverage for the prefix actually selected.
func finalize(sol *Solution, st *kernel.State, dense bool) *Solution {
	sol.Cover = st.Cover()
	if !dense {
		return sol
	}
	sol.Coverage = make([]float64, st.Graph().NumNodes())
	for v := range sol.Coverage {
		sol.Coverage[v] = st.ItemCoverage(int32(v))
	}
	return sol
}

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
