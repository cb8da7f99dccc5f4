package kernel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// cancelCheckStride bounds how much scan work happens between context
// polls: one poll per this many candidates caps cancellation latency to a
// few thousand gain evaluations without measurable overhead.
const cancelCheckStride = 2048

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

// fanOut clamps a requested worker count for n nodes: < 1 means
// GOMAXPROCS, and the result never exceeds n or 8×NumCPU. The worker count
// reaches the solver from clients (HTTP workers=, job "workers"), so the
// cap is what bounds the goroutines one solve starts per pick.
func fanOut(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if limit := 8 * runtime.NumCPU(); workers > limit {
		workers = limit
	}
	if workers > n {
		workers = n
	}
	return workers
}

// parallelGains fills gains[v] = st.Gain(v) for every node, chunking the
// node space into contiguous stripes across fanOut(workers, n) workers;
// one worker runs inline with no goroutines. Gain is read-only on the
// state, and each worker writes a disjoint stripe of gains, so the only
// synchronization is the final WaitGroup join.
//
// On cancellation the partially filled gains are meaningless and an error
// is returned; deterministic values otherwise (each entry depends only on
// the immutable graph and current state, not on scheduling).
func parallelGains(ctx context.Context, st *State, gains []float64, workers int) error {
	n := len(gains)
	workers = fanOut(workers, n)
	if workers <= 1 {
		for v := 0; v < n; v++ {
			if v%cancelCheckStride == 0 {
				if err := ctxErr(ctx); err != nil {
					return err
				}
			}
			gains[v] = st.Gain(int32(v))
		}
		return nil
	}
	var canceled atomic.Bool
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				if (v-lo)%cancelCheckStride == 0 {
					if ctxErr(ctx) != nil || canceled.Load() {
						canceled.Store(true)
						return
					}
				}
				gains[v] = st.Gain(int32(v))
			}
		}(lo, hi)
	}
	wg.Wait()
	if canceled.Load() {
		return ctx.Err()
	}
	return nil
}

// ScanPick is the scan strategies' pick: the literal Algorithm 1 at one
// worker, the paper's parallelized Algorithm 1 at more. It fills every gain
// with the striped fan-out, then takes the argmax and the runner-up in
// ascending id order. Strictly-greater replacement keeps the smaller id on
// ties, so the selection does not depend on the worker count; the runner-up
// is the remaining-gain bound. ok is false when every node is already
// retained.
func (s *State) ScanPick(ctx context.Context, workers int) (v int32, gain, bound float64, ok bool, err error) {
	gains := s.buf.scratch
	if err := parallelGains(ctx, s, gains, workers); err != nil {
		return 0, 0, 0, false, err
	}
	best, bestGain := int32(-1), -1.0
	for u, g := range gains {
		if s.Retained(int32(u)) {
			continue
		}
		if g > bestGain {
			if bestGain > bound {
				bound = bestGain
			}
			best, bestGain = int32(u), g
		} else if g > bound {
			bound = g
		}
	}
	if best < 0 {
		return 0, 0, 0, false, nil
	}
	return best, bestGain, bound, true, nil
}
