package greedy

import (
	"fmt"
	"time"
)

// Strategy names reported in ProgressEvent and used as metric labels by
// the serving layer.
const (
	StrategyScan     = "scan"
	StrategyParallel = "parallel"
	// StrategyLazy is CELF on the data-oriented kernel (internal/kernel):
	// flat coverage state, a reused allocation-free heap, chunk-parallel
	// heap builds, and memoized base gains. It is the default strategy.
	StrategyLazy       = "lazy"
	StrategyStochastic = "stochastic"
	// StrategyLazyFlat and StrategySketch are aliases of StrategyLazy,
	// kept so clients that named the kernel picker or the retired
	// sketch-bounded picker keep working; both report as StrategyLazy.
	StrategyLazyFlat = "lazyflat"
	StrategySketch   = "sketch"
	// StrategyPinned marks selections forced by Options.Pinned; they are
	// reported before the greedy fill begins.
	StrategyPinned = "pinned"
)

// ParseStrategy validates an explicit Options.Strategy value; the empty
// string (the default, StrategyLazy) is allowed. StrategyStochastic is not
// an explicit choice — it is selected by setting StochasticEpsilon.
func ParseStrategy(s string) (string, error) {
	switch s {
	case "", StrategyScan, StrategyParallel, StrategyLazy, StrategyLazyFlat, StrategySketch:
		return s, nil
	}
	return "", fmt.Errorf("greedy: unknown strategy %q (want scan, parallel, lazy, lazyflat or sketch)", s)
}

// ResolveStrategy maps a client's strategy inputs to one Options.Strategy
// value. An explicit strategy wins (and is validated); otherwise the legacy
// lazy switch decides: lazy on is the default strategy, lazy off is the
// scan, or the parallel scan when workers > 1.
func ResolveStrategy(explicit string, lazy bool, workers int) (string, error) {
	switch {
	case explicit != "":
		return ParseStrategy(explicit)
	case lazy:
		return StrategyLazy, nil
	case workers > 1:
		return StrategyParallel, nil
	default:
		return StrategyScan, nil
	}
}

// ProgressEvent describes one completed solver iteration. It is the
// observability counterpart of the paper's Performance Analysis section:
// Evaluated exposes the per-iteration work of the scan strategies (O(n)
// per pick) and Reevaluated the lazy-CELF heap behavior (how many stale
// upper bounds had to be recomputed before the true argmax surfaced —
// usually far fewer than n).
type ProgressEvent struct {
	// Step is the 1-based selection index; Node, Gain and Cover mirror the
	// OnSelect callback (Cover is C(S) after adding Node).
	Step  int
	Node  int32
	Gain  float64
	Cover float64
	// Strategy is the Strategy* constant that produced this selection.
	Strategy string
	// Evaluated counts marginal-gain evaluations performed during this
	// iteration's pick (the lazy strategy's initial O(n) heap build is
	// accounted in TotalEvals, not in any single iteration).
	Evaluated int64
	// Reevaluated counts lazy-heap stale-bound recomputations during this
	// iteration; zero for the other strategies.
	Reevaluated int64
	// TotalEvals is Solution.GainEvals so far, cumulative over the run.
	TotalEvals int64
	// EvalTime and CommitTime split the iteration's wall time into the
	// gain-evaluation stage (the pick: argmax search, heap pops, sampling)
	// and the node-commit stage (Engine.Add updating coverage state). Both
	// are measured only when Options.Progress is set — the hot path takes
	// no clock readings otherwise — and are zero for pinned selections,
	// which skip the pick entirely.
	EvalTime   time.Duration
	CommitTime time.Duration
	// MaxRemainingGain is an upper bound on the marginal gain of any
	// candidate still outside S after this selection, free as a byproduct
	// of the pick: the runner-up gain for the scan strategies, the heap
	// top's (stale-is-still-an-upper-bound) gain for lazy CELF. It is
	// BoundUnavailable (-1) for pinned selections and the stochastic
	// strategy. Because C is monotone submodular, after iteration i any
	// size-k solution satisfies
	//
	//	f(OPT_k) <= C(S_i) + k * MaxRemainingGain_i
	//
	// so min over iterations of that expression (capped at 1) is a
	// per-solve certificate of how far the greedy answer can possibly be
	// from optimal — the approximation gap the serving layer reports.
	MaxRemainingGain float64
}

// BoundUnavailable is the MaxRemainingGain sentinel for selections that
// cannot produce a sound remaining-gain bound.
const BoundUnavailable = -1.0

// strategy names the execution strategy the options select, with
// the empty default and StrategyLazy's aliases folded into StrategyLazy.
func (o *Options) strategy() string {
	switch {
	case o.StochasticEpsilon > 0:
		return StrategyStochastic
	case o.Strategy == "", o.Strategy == StrategyLazyFlat, o.Strategy == StrategySketch:
		return StrategyLazy
	default:
		return o.Strategy
	}
}

// StrategyName exposes the resolved strategy for observability labels
// (metrics, pprof labels) without re-implementing the selection rules in
// the serving layer.
func (o *Options) StrategyName() string { return o.strategy() }
