package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"prefcover/internal/cover"
	"prefcover/internal/graph"
	"prefcover/internal/greedy"
	"prefcover/internal/server"
	"prefcover/internal/solvecache"
	"prefcover/internal/store"
)

// replayOps is how many scheduled solves and jobs the traced run replays
// after the set-up, time budget permitting.
const replayOps = 400

// replayer replays ops one at a time, timing each layer from outside: the
// loopback call to a fresh daemon, the same request through an in-process
// server, and the layer calls the request implies on bench-owned
// instances fed the same inputs.
type replayer struct {
	r        *runner
	tr       *tracer
	dep      *deployment
	c        *client
	handler  http.Handler
	reg      *store.Registry
	cache    *solvecache.Cache
	strategy string // the daemon's own solver strategy label

	handlerMs, selfMs, transportMs        []float64 // per replayed solve
	coverageMs, lookupUs, greedyMs, putMs []float64
	decodeMs, decodeMB                    float64
	gainEvals                             int64
	answered                              []answer // every replayed solve's served prefix
}

type answer struct {
	g     *graph.Graph
	order []int32
}

// replay boots a fresh deployment and replays the set-up and then the
// scheduled ops, up to replayOps solves and jobs or until budget has
// passed. It checks that the replayed greedy.Solve calls equal the
// daemon's own count of solver runs, and sets the [R] layer metrics.
func (r *runner) replay(ctx context.Context, tr *tracer, ops []op, budget time.Duration) error {
	dep, err := deploy(r.cfg.daemon, r.w.gateway)
	if err != nil {
		return err
	}
	defer dep.stop()
	srv, err := server.NewWithConfig(server.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	rp := &replayer{r: r, tr: tr, dep: dep, c: newClient(dep.front.url, 1), handler: srv.Handler(),
		cache: solvecache.New(solvecache.Options{})}
	defer rp.c.close()
	rp.reg, err = store.New(store.Options{OnInvalidate: func(_, hash string) { rp.cache.InvalidateGraph(hash) }})
	if err != nil {
		return err
	}

	setup := r.setupOps()
	start, replayed := time.Now(), 0
	for i, o := range append(setup, ops...) {
		if i >= len(setup) && (replayed >= replayOps || time.Since(start) > budget) {
			break
		}
		if i >= len(setup) && o.Kind != opPut {
			replayed++
		}
		r.res.attempted++
		if err := rp.op(ctx, 1_000_000+i, o); err != nil {
			r.res.wrong("replayed %s %+v: %v", o.Kind, o, err)
		}
	}

	scrapes, err := dep.scrapeNodes(ctx)
	if err != nil {
		return err
	}
	if daemon := int(sum(scrapes, "prefcover_solver_solves_total", nil)); daemon != len(rp.greedyMs) {
		r.res.wrong("replay ran greedy.Solve %d times, the daemon counted %d solver runs", len(rp.greedyMs), daemon)
	}
	if len(rp.coverageMs) == 0 {
		// No replayed hit was shorter than its cached prefix (cold-pins
		// answers almost every solve by solving): time the cover layer on
		// the served prefixes instead.
		for _, a := range rp.answered {
			t := time.Now()
			if _, err := cover.PerItemCoverage(a.g, graphVariant, a.order); err != nil {
				return err
			}
			rp.coverageMs = append(rp.coverageMs, ms(time.Since(t)))
		}
	}
	res := r.res
	res.set("server.handler_p50_ms", percentile(rp.handlerMs, 0.5))
	res.set("server.self_p50_ms", percentile(rp.selfMs, 0.5))
	res.set("server.transport_p50_ms", percentile(rp.transportMs, 0.5))
	res.set("cover.coverage_p50_ms", percentile(rp.coverageMs, 0.5))
	res.set("solvecache.lookup_p50_us", percentile(rp.lookupUs, 0.5))
	res.set("greedy.solve_p50_ms", percentile(rp.greedyMs, 0.5))
	res.set("greedy.solve_p99_ms", percentile(rp.greedyMs, 0.99))
	res.set("greedy.gain_evals_per_solve", float64(rp.gainEvals)/float64(max(len(rp.greedyMs), 1)))
	res.set("graph.decode_ms_per_mb", rp.decodeMs/rp.decodeMB)
	res.set("store.put_p50_ms", percentile(rp.putMs, 0.5))
	res.note("replay: %d set-up ops and %d scheduled solves and jobs in %v; %d greedy.Solve calls under strategy %q",
		len(setup), replayed, time.Since(start).Round(time.Millisecond), len(rp.greedyMs), rp.strategy)
	return nil
}

// op replays one op under a root span on its own tid.
func (rp *replayer) op(ctx context.Context, tid int, o op) error {
	var err error
	rp.tr.timed(string(o.Kind), 0, tid, func(root int) { err = rp.replayOp(ctx, root, tid, o) })
	return err
}

func (rp *replayer) replayOp(ctx context.Context, root, tid int, o op) error {
	r := rp.r
	s := sample{op: o}
	_, loop := rp.tr.timed("loopback", root, tid, func(int) {
		r.send(ctx, rp.c, &s)
		if s.err == nil && o.Kind == opJob {
			r.await(ctx, rp.c, &s, replayPoll)
		}
	})
	if s.err != nil {
		return s.err
	}
	if o.Kind != opPut && rp.strategy == "" {
		var err error
		if rp.strategy, err = rp.dep.solverStrategy(ctx); err != nil {
			return err
		}
		if rp.strategy == "" {
			return fmt.Errorf("the daemon answered before recording any solver run")
		}
	}
	var herr error
	_, handler := rp.tr.timed("server.handler", root, tid, func(int) { herr = rp.inProcess(o) })
	if herr != nil {
		return fmt.Errorf("in-process server: %w", herr)
	}
	var order []int32
	var g *graph.Graph
	var lerr error
	_, layers := rp.tr.timed("layers", root, tid, func(id int) { g, order, lerr = rp.layers(ctx, id, tid, o) })
	if lerr != nil || o.Kind == opPut {
		return lerr
	}
	if err := checkSolution(o, g.NumNodes(), s.sol); err != nil {
		return err
	}
	if len(order) != len(s.sol.Order) {
		return fmt.Errorf("daemon served %d items, the replayed layers %d", len(s.sol.Order), len(order))
	}
	for i, v := range order {
		if g.Label(v) != s.sol.Order[i] {
			return fmt.Errorf("daemon and replayed layers differ at item %d", i)
		}
	}
	rp.answered = append(rp.answered, answer{g, order})
	if o.Kind == opSolve {
		rp.handlerMs = append(rp.handlerMs, ms(handler))
		rp.selfMs = append(rp.selfMs, ms(handler-layers))
		rp.transportMs = append(rp.transportMs, ms(loop-handler))
	}
	return nil
}

// inProcess sends o through the in-process server's handler; a job is
// polled to a terminal state.
func (rp *replayer) inProcess(o op) error {
	method, path, ct, body, want := rp.r.request(o)
	rec := rp.serve(method, path, ct, body)
	if rec.Code != want && !(o.Kind == opPut && rec.Code == http.StatusCreated) {
		return fmt.Errorf("%s %s: HTTP %d", method, path, rec.Code)
	}
	if o.Kind != opJob {
		return nil
	}
	st, err := decodeJob(rec.Body.Bytes())
	if err != nil {
		return err
	}
	for st.State == "queued" || st.State == "running" {
		time.Sleep(time.Millisecond)
		if st, err = decodeJob(rp.serve(http.MethodGet, "/v1/jobs/"+st.ID, "", nil).Body.Bytes()); err != nil {
			return err
		}
	}
	if st.State != "done" {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

func (rp *replayer) serve(method, path, ct string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	rec := httptest.NewRecorder()
	rp.handler.ServeHTTP(rec, req)
	return rec
}

// layers replays the layer calls o implies: a put decodes its body and
// stores the graph; a solve or job goes through the solve cache, whose
// miss runs greedy.Solve, and a hit shorter than the cached prefix
// recomputes per-item coverage. It returns the served prefix.
func (rp *replayer) layers(ctx context.Context, parent, tid int, o op) (*graph.Graph, []int32, error) {
	r, tr := rp.r, rp.tr
	name := r.graphName(o)
	if o.Kind == opPut {
		body := r.body(o)
		var g *graph.Graph
		var err error
		_, d := tr.timed("graph.decode", parent, tid, func(int) {
			if r.w.graphs[o.Graph].binary {
				g, err = graph.ReadBinary(bytes.NewReader(body))
			} else {
				g, err = graph.ReadJSON(bytes.NewReader(body), graph.BuildOptions{})
			}
		})
		if err != nil {
			return nil, nil, err
		}
		rp.decodeMs += ms(d)
		rp.decodeMB += float64(len(body)) / (1 << 20)
		_, d = tr.timed("store.put", parent, tid, func(int) { _, _, err = rp.reg.Put(name, g) })
		rp.putMs = append(rp.putMs, ms(d))
		return g, nil, err
	}
	entry, ok := rp.reg.Get(name)
	if !ok {
		return nil, nil, fmt.Errorf("graph %s not stored", name)
	}
	g := entry.Graph
	pins := make([]int32, len(o.Pins))
	for i, p := range o.Pins {
		v, ok := g.Lookup(p)
		if !ok {
			return nil, nil, fmt.Errorf("unknown pin %s", p)
		}
		pins[i] = v
	}
	key := solvecache.Key{GraphHash: entry.Hash, Variant: graphVariant, Pins: solvecache.PinsKey(pins), Strategy: rp.strategy}
	var hit *solvecache.Hit
	var err error
	var solved time.Duration
	_, d := tr.timed("solvecache.do", parent, tid, func(id int) {
		hit, _, err = rp.cache.Do(ctx, key, solvecache.Query{K: o.K, Threshold: o.T}, func() (*solvecache.Result, error) {
			var sol *greedy.Solution
			var serr error
			_, solved = tr.timed("greedy.solve", id, tid, func(int) {
				sol, serr = greedy.Solve(g, greedy.Options{Variant: graphVariant, K: o.K, Threshold: o.T,
					Pinned: pins, Strategy: rp.strategy})
			})
			if serr != nil {
				return nil, serr
			}
			rp.greedyMs = append(rp.greedyMs, ms(solved))
			rp.gainEvals += sol.GainEvals
			return solvecache.NewResult(sol, g.NumNodes(), len(pins)), nil
		})
	})
	if err != nil {
		return nil, nil, err
	}
	rp.lookupUs = append(rp.lookupUs, ms(d-solved)*1000)
	if hit.Coverage == nil {
		_, d := tr.timed("cover.coverage", parent, tid, func(int) { _, err = cover.PerItemCoverage(g, graphVariant, hit.Order) })
		rp.coverageMs = append(rp.coverageMs, ms(d))
	}
	return g, hit.Order, err
}
