package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

const (
	jobPoll    = 50 * time.Millisecond // job status polling in the timed phases
	replayPoll = 5 * time.Millisecond  // job status polling in the replay
)

// runner measures one workload for one seed.
type runner struct {
	cfg     config
	w       *workload
	in      *inputs
	senders int // open-loop senders and closed-loop clients: one per CPU
	rate    float64
	res     *result
	// realtime reports whether the last open loop's dispatcher ran at
	// real-time priority.
	realtime bool
}

// sample is one op as sent and answered.
type sample struct {
	op      op
	due     time.Time // when the op was scheduled to be sent
	sent    time.Time // when the dispatcher handed it on
	gotConn time.Time
	done    time.Time // last byte of the op's final response
	bytes   int
	cache   string
	sol     *solution
	job     *jobStatus
	err     error
}

func (s *sample) latency() float64 {
	if s.err != nil {
		return math.Inf(1)
	}
	return ms(s.done.Sub(s.due))
}

func (r *runner) graphName(o op) string { return r.w.graphs[o.Graph].name }

// body is the upload body of a put: the refresh version, or the graph.
func (r *runner) body(o op) []byte {
	if r.w.mix == mixRefresh {
		return r.in.vbodies[o.Version]
	}
	return r.in.bodies[o.Graph]
}

// setupOps uploads every graph, then runs the warm-up solves.
func (r *runner) setupOps() []op {
	var ops []op
	for g := range r.w.graphs {
		ops = append(ops, op{Kind: opPut, Graph: g})
	}
	return append(ops, r.in.warmup()...)
}

// request is the HTTP request of o and the status that answers it.
func (r *runner) request(o op) (method, path, contentType string, body []byte, want int) {
	switch o.Kind {
	case opPut:
		return http.MethodPut, "/v1/graphs/" + r.graphName(o), r.in.contentType(o.Graph), r.body(o), http.StatusOK
	case opJob:
		return http.MethodPost, "/v1/jobs", "application/json", jobBody(o, r.graphName(o)), http.StatusAccepted
	}
	return http.MethodPost, solvePath(o), "application/json", refBody(r.graphName(o)), http.StatusOK
}

// send issues s.op once through c; a job is only submitted (see await).
func (r *runner) send(ctx context.Context, c *client, s *sample) {
	o := s.op
	method, path, ct, body, want := r.request(o)
	rep, err := c.do(ctx, method, path, ct, body)
	if err != nil {
		s.err, s.done = err, time.Now()
		return
	}
	defer rep.release()
	s.gotConn, s.done, s.bytes, s.cache = rep.gotConn, rep.done, len(rep.body), rep.cache
	switch {
	case rep.status != want && !(o.Kind == opPut && rep.status == http.StatusCreated):
		s.err = httpError(method, path, rep)
	case o.Kind == opPut && r.w.gateway && rep.header.Get("X-Prefcover-Replicas") != "2":
		s.err = fmt.Errorf("PUT %s: replicated to %q nodes, want 2", path, rep.header.Get("X-Prefcover-Replicas"))
	case o.Kind == opJob:
		s.job, s.err = decodeJob(rep.body)
	case o.Kind == opSolve:
		s.sol, s.err = decodeSolution(rep.body)
	}
}

// await polls a submitted job every poll until it reaches a terminal
// state; a job that does not finish done fails.
func (r *runner) await(ctx context.Context, c *client, s *sample, poll time.Duration) {
	for {
		time.Sleep(poll)
		st, err := r.status(ctx, c, s.job.ID)
		s.done = time.Now()
		switch {
		case err != nil:
			s.err = err
		case st.State == "queued" || st.State == "running":
			continue
		case st.State != "done":
			s.job, s.err = st, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		case st.Result == nil || st.Started == nil || st.Finished == nil:
			s.job, s.err = st, fmt.Errorf("job %s done without result", st.ID)
		default:
			s.job, s.sol = st, st.Result
		}
		return
	}
}

func (r *runner) status(ctx context.Context, c *client, id string) (*jobStatus, error) {
	path := "/v1/jobs/" + id
	rep, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return nil, err
	}
	defer rep.release()
	if rep.status != http.StatusOK {
		return nil, httpError(http.MethodGet, path, rep)
	}
	return decodeJob(rep.body)
}

// openLoop sends ops on their schedule: one dispatcher hands each op, at
// its due time, to r.senders senders sharing a transport capped at
// r.senders connections. Puts go through one connection of their own so
// a re-upload does not take a sender away from the reads beside it. Job
// statuses are polled off the senders. With tr set, each op records, as
// it completes, a root span from due time to last byte and a child for
// the request.
func (r *runner) openLoop(ctx context.Context, url string, ops []op, tr *tracer) []sample {
	gen, putc := newClient(url, r.senders), newClient(url, 1)
	defer gen.close()
	defer putc.close()
	samples := make([]sample, len(ops))
	finish := func(i int) {
		if s := &samples[i]; tr != nil {
			root := tr.add(string(s.op.Kind), 0, i+1, s.due, s.done)
			tr.add("loopback", root, i+1, s.sent, s.done)
		}
	}
	// Both queues hold the whole schedule so the dispatcher never blocks:
	// time an op waits for a free sender is connection wait, not send lag.
	queue, puts := make(chan int, len(ops)), make(chan int, len(ops))
	var workers, polls sync.WaitGroup
	serve := func(c *client, q chan int) {
		defer workers.Done()
		for i := range q {
			s := &samples[i]
			if r.send(ctx, c, s); s.op.Kind != opJob || s.err != nil {
				finish(i)
				continue
			}
			polls.Add(1)
			go func(i int) {
				defer polls.Done()
				r.await(ctx, gen, &samples[i], jobPoll)
				finish(i)
			}(i)
		}
	}
	workers.Add(r.senders + 1)
	for i := 0; i < r.senders; i++ {
		go serve(gen, queue)
	}
	go serve(putc, puts)
	r.realtime = onRealtimeThread(func() {
		start := time.Now()
		for i := range ops {
			s := &samples[i]
			s.op, s.due = ops[i], start.Add(ops[i].At)
			sleepUntil(s.due)
			s.sent = time.Now()
			if s.op.Kind == opPut {
				puts <- i
			} else {
				queue <- i
			}
		}
	})
	close(queue)
	close(puts)
	workers.Wait()
	polls.Wait()
	return samples
}

// solveOps returns a source of the mix's solves drawn from stream, safe
// for concurrent clients.
func (r *runner) solveOps(stream int) func() op {
	rng := newRand(r.cfg.seed, stream)
	var mu sync.Mutex
	return func() op {
		mu.Lock()
		defer mu.Unlock()
		for {
			if o := r.in.draw(rng); o.Kind == opSolve {
				return o
			}
		}
	}
}

// closedLoop runs r.senders clients back to back for dur on ops from
// next, with the re-uploads in puts sent beside them at their times. It
// returns the samples and the elapsed time.
func (r *runner) closedLoop(ctx context.Context, url string, dur time.Duration, puts []op, next func() op) ([]sample, time.Duration) {
	gen, putc := newClient(url, r.senders), newClient(url, 1)
	defer gen.close()
	defer putc.close()
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, r.senders+1)
	var wg sync.WaitGroup
	wg.Add(r.senders + 1)
	for i := 0; i < r.senders; i++ {
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				now := time.Now()
				s := sample{op: next(), due: now, sent: now}
				r.send(ctx, gen, &s)
				per[i] = append(per[i], s)
			}
		}(i)
	}
	go func() {
		defer wg.Done()
		for _, o := range puts {
			s := sample{op: o, due: start.Add(o.At)}
			time.Sleep(time.Until(s.due))
			s.sent = time.Now()
			r.send(ctx, putc, &s)
			per[r.senders] = append(per[r.senders], s)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// setUp boots a fresh deployment, uploads the graphs and runs the warm-up
// solves. It returns the deployment, the set-up time and the samples.
func (r *runner) setUp(ctx context.Context) (*deployment, time.Duration, []sample, error) {
	start := time.Now()
	dep, err := deploy(r.cfg.daemon, r.w.gateway)
	if err != nil {
		return nil, 0, nil, err
	}
	c := newClient(dep.front.url, 1)
	defer c.close()
	var samples []sample
	for _, o := range r.setupOps() {
		now := time.Now()
		s := sample{op: o, due: now, sent: now}
		r.send(ctx, c, &s)
		if s.err == nil && o.Kind == opSolve {
			s.err = checkSolution(o, r.in.graphs[o.Graph].NumNodes(), s.sol)
		}
		if s.err != nil {
			dep.stop()
			return nil, 0, nil, fmt.Errorf("set-up %s: %w", o.Kind, s.err)
		}
		samples = append(samples, s)
	}
	return dep, time.Since(start), samples, nil
}

// result is one run's outcome: every metric value by name, plus failures.
type result struct {
	attempted, failed int
	problems          []string // wrong answers; any makes the run incorrect
	values            map[string]float64
	notes             []string // extra report lines
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (res *result) set(name string, v float64) { res.values[name] = v }

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// count adds samples to attempted and their failures to failed.
func (res *result) count(samples []sample) {
	for i := range samples {
		res.attempted++
		if samples[i].err != nil {
			res.failed++
			if len(res.notes) < 20 {
				res.note("failed %s: %v", samples[i].op.Kind, samples[i].err)
			}
		}
	}
}

func (res *result) wrong(format string, args ...any) {
	res.failed++
	res.problems = append(res.problems, fmt.Sprintf(format, args...))
}

// putMs and jobMs collect put latencies and job turnarounds.
func putMs(samples []sample) []float64 {
	var out []float64
	for i := range samples {
		if s := &samples[i]; s.op.Kind == opPut {
			out = append(out, s.latency())
		}
	}
	return out
}

func jobMs(samples []sample, part func(*jobStatus) (time.Time, time.Time)) []float64 {
	var out []float64
	for i := range samples {
		s := &samples[i]
		if s.op.Kind != opJob {
			continue
		}
		if s.err != nil || s.job == nil || s.job.Started == nil || s.job.Finished == nil {
			out = append(out, math.Inf(1))
			continue
		}
		from, to := part(s.job)
		out = append(out, ms(to.Sub(from)))
	}
	return out
}

func turnaround(j *jobStatus) (time.Time, time.Time) { return j.Created, *j.Finished }
func queueWait(j *jobStatus) (time.Time, time.Time)  { return j.Created, *j.Started }
func jobRun(j *jobStatus) (time.Time, time.Time)     { return *j.Started, *j.Finished }

// solveMs are the latencies of the solves among samples.
func solveMs(samples []sample) []float64 {
	var out []float64
	for i := range samples {
		if samples[i].op.Kind == opSolve {
			out = append(out, samples[i].latency())
		}
	}
	return out
}

func okSolves(samples []sample) int {
	n := 0
	for i := range samples {
		if samples[i].op.Kind == opSolve && samples[i].err == nil {
			n++
		}
	}
	return n
}
