// Package profilez is prefcoverd's continuous-profiling and
// resource-attribution layer, built entirely on the standard library's
// runtime/pprof and runtime/metrics machinery. It answers the question the
// ROADMAP's solver-speed tier depends on — *where* CPU, allocations and GC
// pressure actually go, per graph / strategy / endpoint — before any
// hot-path rewrite is attempted, so the coming speedups are measured
// against attributed baselines instead of guessed.
//
// Four cooperating pieces:
//
//   - pprof profile labels (labels.go): Do wraps the solver hot path so
//     CPU samples carry graph/strategy/endpoint/k_bucket/job label pairs,
//     filterable with `go tool pprof -tagfocus`;
//   - a capture ring (capture.go): periodic and trigger-based snapshots of
//     the cpu/heap/goroutine/mutex/block profiles into a bounded on-disk
//     ring, indexed (HTML + JSON, download links, provenance) at
//     /debug/profilez (handler.go);
//   - per-solve resource accounting (this file): wall/CPU time, allocated
//     bytes/objects and GC-pause deltas sampled via runtime/metrics around
//     each solve, attached to trace spans, job results and /metrics;
//   - a consumer accountant (accountant.go): cumulative per-(graph,
//     strategy) resource totals behind the /debug/statusz "top resource
//     consumers" panel.
package profilez

import (
	"runtime/metrics"
	"time"
)

// runtime/metrics names sampled around each solve. All are cumulative
// counters, so before/after deltas are meaningful.
const (
	metricAllocBytes   = "/gc/heap/allocs:bytes"
	metricAllocObjects = "/gc/heap/allocs:objects"
	metricGCPauses     = "/gc/pauses:seconds" // histogram; see pauseSeconds
)

// Usage is the resource delta observed across one solve. The runtime
// counters behind it are process-global, so under concurrent solves the
// deltas over-attribute (each solve sees its neighbours' allocations too);
// attribution is exact when solves are serialized — which is how the
// benchmark harness and a -max-concurrent 1 daemon run — and a labeled CPU
// profile is the precise instrument when they are not.
type Usage struct {
	// WallNanos is end-to-end wall time of the solve.
	WallNanos int64 `json:"wallNs"`
	// CPUNanos is the process CPU time (user+system) consumed while the
	// solve ran, from the OS's rusage accounting.
	CPUNanos int64 `json:"cpuNs"`
	// AllocBytes / AllocObjects are heap allocation deltas
	// (/gc/heap/allocs). Objects above 32 KiB are counted at allocation;
	// small-object deltas lag by up to one span per size class, as the
	// runtime counts those only when a P's mcache span is refilled.
	AllocBytes   int64 `json:"allocBytes"`
	AllocObjects int64 `json:"allocObjects"`
	// GCPauseNanos is the stop-the-world pause time that elapsed during
	// the solve, approximated from the /gc/pauses:seconds histogram
	// (bucket counts weighted by bucket midpoints).
	GCPauseNanos int64 `json:"gcPauseNs"`
}

// Sample is one instant of the counters a Usage is computed from.
type Sample struct {
	wall         time.Time
	cpuNanos     int64
	allocBytes   uint64
	allocObjects uint64
	gcPauseNanos int64
}

// TakeSample reads the counters now. Cost is a few microseconds — two
// syscall-free runtime/metrics reads plus one getrusage — which is noise
// against even a cache-warm millisecond solve.
func TakeSample() Sample {
	samples := [3]metrics.Sample{
		{Name: metricAllocBytes},
		{Name: metricAllocObjects},
		{Name: metricGCPauses},
	}
	metrics.Read(samples[:])
	s := Sample{wall: time.Now(), cpuNanos: processCPUNanos()}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.allocObjects = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.gcPauseNanos = pauseNanos(samples[2].Value.Float64Histogram())
	}
	return s
}

// Since returns the resource usage between start and now.
func Since(start Sample) Usage {
	end := TakeSample()
	return Usage{
		WallNanos:    end.wall.Sub(start.wall).Nanoseconds(),
		CPUNanos:     max64(0, end.cpuNanos-start.cpuNanos),
		AllocBytes:   max64(0, int64(end.allocBytes-start.allocBytes)),
		AllocObjects: max64(0, int64(end.allocObjects-start.allocObjects)),
		GCPauseNanos: max64(0, end.gcPauseNanos-start.gcPauseNanos),
	}
}

// pauseNanos estimates cumulative pause time from the pause-duration
// histogram: each bucket's count weighted by the bucket midpoint.
// runtime/metrics exposes pauses only in histogram form; the midpoint
// estimate is exact enough for a delta that answers "did GC stall this
// solve" (bucket bounds grow geometrically, so the estimate is within ~2x
// per bucket and unbiased in aggregate).
func pauseNanos(h *metrics.Float64Histogram) int64 {
	if h == nil {
		return 0
	}
	var total float64
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		// The outermost buckets are unbounded; fall back to the finite
		// edge so ±Inf never poisons the sum.
		mid := (lo + hi) / 2
		switch {
		case lo < 0 || lo != lo: // -Inf underflow bucket
			mid = hi
		case hi != hi || hi > 1e12: // +Inf overflow bucket
			mid = lo
		}
		total += float64(count) * mid
	}
	return int64(total * 1e9)
}

func max64(floor, v int64) int64 {
	if v < floor {
		return floor
	}
	return v
}
