package main

import (
	"context"
	"sync"
	"time"

	"prefcover/internal/promtext"
)

// phaseSlices is how many slices each phase is cut into. On the shared
// two-CPU host the benchmark was defined on, CPU speed alternates between
// two levels 1.7x apart every few seconds; a phase run as slices spread
// over the whole run samples more of those swings than one contiguous
// stretch, so its metrics repeat from run to run.
const phaseSlices = 12

// setupRuns is how many set-ups an untraced run times; setup_s is their
// median. One set-up lasts under a second and lands in whichever speed
// level the host is in; over ten seeds the median of five spread across
// the run repeated better than the first set-up alone on three of the
// four workloads.
const setupRuns = 5

// measure is the untraced run: a set-up, then an open-loop phase over
// two thirds of the run time and a closed-loop phase over the last third,
// run as alternating slices, then the oracle. The other set-ups, spread
// evenly over the run, are timed on deployments of their own and stopped,
// for the same reason the phases are sliced. It sets every end-to-end
// metric.
func (r *runner) measure(ctx context.Context) error {
	total := r.cfg.duration()
	openDur, closedDur := total*2/3, total/3
	dep, took, setupSamples, err := r.setUp(ctx)
	if err != nil {
		return err
	}
	defer dep.stop()
	setups := []float64{took.Seconds()}

	ops := r.in.schedule(r.cfg.seed, r.rate, openDur)
	openSlices := slices(ops, phaseSlices, openDur/phaseSlices)
	closedSlices := slices(r.in.refreshPuts(closedDur), phaseSlices, closedDur/phaseSlices)
	var order [][]op
	for k := range openSlices {
		order = append(order, openSlices[k], closedSlices[k])
	}
	numberVersions(order...)
	next := r.solveOps(streamClosed)
	var open, closed []sample
	var openCPU float64
	var elapsed time.Duration
	for k := range openSlices {
		cpu0, err := dep.cpuMs()
		if err != nil {
			return err
		}
		open = append(open, r.openLoop(ctx, dep.front.url, openSlices[k], nil)...)
		cpu1, err := dep.cpuMs()
		if err != nil {
			return err
		}
		openCPU += cpu1 - cpu0
		c, took := r.closedLoop(ctx, dep.front.url, closedDur/phaseSlices, closedSlices[k], next)
		closed, elapsed = append(closed, c...), elapsed+took
		if (k+1)%(phaseSlices/(setupRuns-1)) == 0 {
			d, took, samples, err := r.setUp(ctx)
			if err != nil {
				return err
			}
			d.stop()
			setups = append(setups, took.Seconds())
			r.res.count(samples)
		}
	}
	orc := r.oracle(ctx, dep.front.url, version(open, closed))
	rss, err := dep.peakRSSMiB()
	if err != nil {
		return err
	}
	if r.w.gateway {
		m, err := scrape(ctx, dep.front.url)
		if err != nil {
			return err
		}
		r.res.note("cluster.failovers %g (forwards the gateway retried on the other node; 0 expected)",
			sum([]*promtext.Metrics{m}, "prefcover_gateway_failovers_total", nil))
	}
	r.checkSamples(concat(setupSamples, open, closed))
	for _, s := range [][]sample{setupSamples, open, closed, orc} {
		r.res.count(s)
	}

	r.res.set("setup_s", percentile(setups, 0.5))
	lat := solveMs(open)
	r.res.set("solve_p50_ms", percentile(lat, 0.50))
	r.res.set("solve_tput_rps", float64(okSolves(closed))/elapsed.Seconds())
	r.res.set("cpu_ms_per_op", openCPU/float64(max(completed(open), 1)))
	r.res.set("rss_peak_mb", rss)
	r.res.note("open loop: %d ops at %g/s over %v (%d solves, p99 %.3f ms), send lag p99 %.3f ms, real-time dispatcher %v",
		len(ops), r.rate, openDur, len(lat), percentile(lat, 0.99), percentile(lagMs(open), 0.99), r.realtime)
	r.res.note("closed loop: %d solves by %d clients in %v; set-ups %.3f s",
		okSolves(closed), r.senders, elapsed.Round(time.Millisecond), setups)
	return nil
}

// measureTraced is the traced run. On one fresh set-up it runs an
// open-loop phase over two thirds of the run time as alternating slices,
// untraced ones for the client-side, /metrics and /proc layer metrics and
// traced ones for the tracing overhead; alternating keeps the host's
// speed swings out of that difference. The replay on a second fresh
// deployment, within the last third, gives the per-layer spans. It sets
// every per-layer metric.
func (r *runner) measureTraced(ctx context.Context, tr *tracer) error {
	third := r.cfg.duration() / 3
	dep, _, setupSamples, err := r.setUp(ctx)
	if err != nil {
		return err
	}
	defer dep.stop()
	ops := r.in.schedule(r.cfg.seed, r.rate, 2*third)
	numberVersions(ops)

	var s1, s2 []sample
	var before, after []*promtext.Metrics
	var cpu, gc float64
	var wall time.Duration
	heap, stopSampler := r.sampleHeap(ctx, dep)
	for k, slice := range slices(ops, 2*phaseSlices, third/phaseSlices) {
		if k%2 == 1 {
			s2 = append(s2, r.openLoop(ctx, dep.front.url, slice, tr)...)
			continue
		}
		if before, err = dep.scrapeNodes(ctx); err != nil {
			return err
		}
		cpu0, err := dep.cpuMs()
		if err != nil {
			return err
		}
		start := time.Now()
		s1 = append(s1, r.openLoop(ctx, dep.front.url, slice, nil)...)
		wall += time.Since(start)
		cpu1, err := dep.cpuMs()
		if err != nil {
			return err
		}
		if after, err = dep.scrapeNodes(ctx); err != nil {
			return err
		}
		cpu += cpu1 - cpu0
		gc += sum(after, "prefcover_runtime_gc_pause_seconds_total", nil) - sum(before, "prefcover_runtime_gc_pause_seconds_total", nil)
	}
	stopSampler()
	orc := r.oracle(ctx, dep.front.url, version(s1, s2))
	r.checkSamples(concat(setupSamples, s1, s2))
	for _, s := range [][]sample{setupSamples, s1, s2, orc} {
		r.res.count(s)
	}

	var solves, hits, coalesced, bytes float64
	for i := range s1 {
		if s := &s1[i]; s.op.Kind == opSolve && s.err == nil {
			solves++
			bytes += float64(s.bytes)
			switch s.cache {
			case "hit":
				hits++
			case "coalesced":
				coalesced++
			}
		}
	}
	solves = max(solves, 1)
	r.res.set("solvecache.hit_ratio", hits/solves)
	r.res.set("solvecache.coalesced_ratio", coalesced/solves)
	r.res.set("server.resp_kb_per_solve", bytes/solves/1024)
	r.res.set("bench.send_lag_p99_ms", percentile(lagMs(s1), 0.99))
	r.res.set("bench.conn_wait_p99_ms", percentile(connWaitMs(s1), 0.99))
	p1, p2 := percentile(solveMs(s1), 0.5), percentile(solveMs(s2), 0.5)
	r.res.set("bench.trace_overhead_pct", (p2-p1)/max(p1, 1e-9)*100)
	r.res.set("solve_p99_ms", percentile(solveMs(s1), 0.99))

	// Solver counters are read since boot: on warm-catalog the warm-up
	// solve is the only solver run, and the open phase has none.
	nsolves := max(sum(after, "prefcover_solver_solves_total", nil), 1)
	r.res.set("greedy.reevals_per_solve", sum(after, "prefcover_solver_heap_reevaluations_total", nil)/nsolves)
	r.res.set("greedy.cpu_ms_per_solve", sum(after, "prefcover_solve_resource_cpu_seconds_total", nil)*1000/nsolves)
	r.res.set("greedy.alloc_kb_per_solve", sum(after, "prefcover_solve_resource_alloc_bytes_total", nil)/1024/nsolves)
	misses := max(sum(after, "prefcover_solvecache_requests_total", map[string]string{"status": "miss"}), 1)
	r.res.set("solvecache.solves_per_miss", nsolves/misses)
	ops1 := float64(max(completed(s1), 1))
	r.res.set("runtime.gc_pause_ms_per_1k_ops", gc*1000/ops1*1000)
	r.res.set("runtime.heap_peak_mb", *heap/(1<<20))
	r.res.set("runtime.cpu_util", cpu/(ms(wall)*float64(r.senders)))
	r.res.set("jobs.queue_wait_p50_ms", percentile(jobMs(s1, queueWait), 0.5))
	r.res.set("jobs.run_p50_ms", percentile(jobMs(s1, jobRun), 0.5))
	r.res.set("job_p50_ms", percentile(jobMs(s1, turnaround), 0.5))
	r.res.set("put_p50_ms", percentile(concat(putMs(setupSamples), putMs(s1)), 0.5))
	r.res.note("untraced open slices: %d ops, solve p50 %.3f ms; traced: %d ops, solve p50 %.3f ms",
		len(s1), p1, len(s2), p2)
	return r.replay(ctx, tr, ops, third)
}

// sampleHeap polls the nodes' heap gauges until stopped and keeps the
// largest sum seen; the returned stop function waits for the poller.
func (r *runner) sampleHeap(ctx context.Context, dep *deployment) (*float64, func()) {
	peak := new(float64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			if scrapes, err := dep.scrapeNodes(ctx); err == nil {
				*peak = max(*peak, sum(scrapes, "prefcover_runtime_heap_alloc_bytes", nil))
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return peak, func() { close(done); wg.Wait() }
}

// sum adds the samples named name whose labels match over every scrape.
func sum(scrapes []*promtext.Metrics, name string, match map[string]string) float64 {
	var s float64
	for _, m := range scrapes {
		for _, smp := range m.Samples(name) {
			if smp.Labels.Matches(match) {
				s += smp.Value
			}
		}
	}
	return s
}

func concat[T any](parts ...[]T) []T {
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// version is the refresh version the deployment holds after the samples:
// the highest one uploaded successfully.
func version(parts ...[]sample) int {
	v := 0
	for _, p := range parts {
		for i := range p {
			if p[i].op.Kind == opPut && p[i].err == nil {
				v = max(v, p[i].op.Version)
			}
		}
	}
	return v
}

// completed counts the solves and jobs among samples that succeeded.
func completed(samples []sample) int {
	n := 0
	for i := range samples {
		if s := &samples[i]; s.op.Kind != opPut && s.err == nil {
			n++
		}
	}
	return n
}

func lagMs(samples []sample) []float64 {
	var out []float64
	for i := range samples {
		out = append(out, ms(samples[i].sent.Sub(samples[i].due)))
	}
	return out
}

// connWaitMs is how long each request waited for a sender and a
// connection after the dispatcher handed it on.
func connWaitMs(samples []sample) []float64 {
	var out []float64
	for i := range samples {
		if s := &samples[i]; s.op.Kind != opPut && !s.gotConn.IsZero() {
			out = append(out, ms(s.gotConn.Sub(s.sent)))
		}
	}
	return out
}
