// Package server implements the paper's end-to-end system (Figure 2) as an
// HTTP service: the Data Adaptation Engine and the Preference Cover Solver
// behind a small JSON API. cmd/prefcoverd wires it to a listener; the
// package itself is net/http-handler based and fully testable with
// httptest.
//
// Endpoints:
//
//	GET  /healthz                         liveness probe
//	GET  /readyz                          readiness probe: 503 once the job
//	                                      queue saturates; body carries load
//	                                      signals for gateway routing
//	GET  /metrics                         Prometheus text exposition
//	GET  /version                         build identity (module, VCS revision, Go)
//	GET  /debug/traces                    flight-recorder dump: Chrome trace
//	                                      JSON, or a text tree via Accept:
//	                                      text/plain (legacy ?format=tree);
//	                                      ?trace=<id>, ?limit=N, ?epoch=unix
//	GET  /debug/statusz                   one-page HTML operator dashboard
//	                                      (build, runtime, RED stats,
//	                                      occupancy, faults, slowest traces)
//	POST /v1/adapt?variant=auto|i|n       body: JSONL clickstream
//	                                      -> {graph, report, variant}
//	POST /v1/solve?variant=i|n&k=K        body: graph JSON
//	     [&threshold=T&strategy=S&workers=W]   (legacy lazy=0|1 still
//	                                      selects scan|lazy)
//	                                      -> {order, cover, coverage, gains}
//	POST /v1/pipeline?k=K[...]            body: JSONL clickstream
//	                                      -> adapt + recommend + solve
//	                                      (variant=auto|i|n; the solve
//	                                      parameters of /v1/solve)
//	GET  /v1/graphs                       registry listing
//	PUT  /v1/graphs/{name}                upload a graph (JSON/TSV/binary
//	                                      by Content-Type); ETag = content
//	GET  /v1/graphs/{name}                download (format by Accept, 304
//	                                      on If-None-Match)
//	DEL  /v1/graphs/{name}                remove + invalidate cached solves
//	POST /v1/jobs                         async solve by graph_ref -> 202
//	GET  /v1/jobs[/{id}]                  queue listing / job status
//	DEL  /v1/jobs/{id}                    cancel or forget a job
//
// One request path serves every solve: /v1/solve and /v1/pipeline parse
// their query string, and /v1/jobs its JSON body, into one jobs.Request,
// validated once before the registry, the prefix cache, the job queue or
// the solver sees it. resolve binds it to its graph (named by a
// {"graph_ref": "name"} body or a job, carried inline, or adapted by the
// pipeline), looks up the repeated ?pin=LABEL items, which are retained
// ahead of the greedy fill, and applies -max-k. answer solves it under one
// deadline; a registered graph goes through the prefix-aware result cache
// (internal/solvecache), which serves any budget up to the cached prefix
// length, and threshold queries by binary search over the cached cover
// curve, with zero solver work.
//
// Observability and robustness: every endpoint is instrumented (request
// counts by status, latency histograms, an in-flight gauge, solver work
// counters, runtime telemetry — see newServerMetrics for the full name
// list). Each request gets an X-Request-ID (generated, or taken verbatim
// from the inbound header) that is echoed in the response header, stamped
// on every structured log line, and included in JSON error bodies, so one
// ID follows a request through every signal. With EnableTracing, every
// Nth /v1/* request additionally records a flight-recorder span tree
// (parse → adapt → recommend → solve, with one span per greedy
// iteration), dumped at /debug/traces. A /v1/* request arriving with a
// sampled W3C traceparent header is always recorded, continuing the
// caller's distributed trace: the request root span parents to the
// caller's span, and a job submission carries the context across the
// queue so worker-side solver spans join the same trace (see
// internal/trace/propagate.go). The /v1/* endpoints respect
// Limits.SolveTimeout (503 on expiry) and Limits.MaxConcurrent (immediate
// 429 when saturated), and the handler cooperates with
// http.Server.Shutdown: in-flight requests run to completion because
// nothing here detaches from the request goroutine.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	netpprof "net/http/pprof"
	"net/url"
	"sync/atomic"
	"time"

	"prefcover"
	"prefcover/adapt"
	"prefcover/clickstream"
	iadapt "prefcover/internal/adapt"
	"prefcover/internal/apiclient"
	"prefcover/internal/debugpage"
	"prefcover/internal/faults"
	"prefcover/internal/jobs"
	"prefcover/internal/metrics"
	"prefcover/internal/profilez"
	"prefcover/internal/promtext"
	"prefcover/internal/slo"
	"prefcover/internal/solvecache"
	"prefcover/internal/store"
	"prefcover/internal/trace"
	"prefcover/internal/version"
)

// Limits protects the service from oversized or runaway requests.
type Limits struct {
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// MaxSolveK caps the solvable budget (default: unlimited). A
	// threshold solve without k runs with k = MaxSolveK.
	MaxSolveK int
	// SolveTimeout bounds each /v1/* request end to end — clickstream
	// parse, adaptation and solve all poll the deadline. On expiry the
	// request fails with 503 and a JSON error body. 0 disables.
	SolveTimeout time.Duration
	// MaxConcurrent caps concurrently executing /v1/* requests; excess
	// requests are rejected immediately with 429 rather than queued, so
	// overload sheds load instead of building an invisible backlog.
	// /healthz and /metrics are exempt. 0 disables.
	MaxConcurrent int
	// SlowRequestThreshold, when positive, emits one structured warning log
	// line (request ID, trace ID, endpoint, status, duration) for every
	// request that takes at least this long — the grep-first signal when
	// latency histograms say something is slow but not which requests.
	SlowRequestThreshold time.Duration
}

// Server is the HTTP handler set.
type Server struct {
	limits Limits
	logger *slog.Logger
	met    *serverMetrics
	// sem is the concurrency limiter; nil when MaxConcurrent == 0.
	sem chan struct{}
	// store is the named graph registry backing solve-by-reference.
	store *store.Registry
	// cache holds ordered greedy prefixes keyed by graph content hash.
	cache *solvecache.Cache
	// jobs is the async solve queue; its workers share sem.
	jobs *jobs.Manager
	// tracer is the flight recorder; traceEvery selects every Nth /v1/*
	// request for recording (0 = off).
	tracer     *trace.Tracer
	traceEvery int
	traceSeq   atomic.Int64
	// faultInj, when non-nil, injects faults into every /v1/* request
	// (see internal/faults); swappable at runtime through SetFaults and,
	// with faultControl, the /debug/faults endpoint.
	faultInj     atomic.Pointer[faults.Injector]
	faultControl bool
	// capturer owns the /debug/profilez ring: periodic and trigger-based
	// profile snapshots (slow requests, job-queue saturation).
	capturer *profilez.Capturer
	// accountant aggregates per-solve resource usage by (graph, strategy)
	// for the statusz top-consumers panel.
	accountant *profilez.Accountant
	// enablePprof mounts net/http/pprof under /debug/pprof/ on the main
	// mux, next to the other /debug/* handlers.
	enablePprof bool
	// monitor is the SLO burn-rate monitor (self-scrape loop, alert state
	// machine, /debug/slo); nil unless Config.SLO enables it.
	monitor *slo.Monitor
	// started anchors the uptime gauge.
	started time.Time
	// testHookStart, when set (tests only), runs inside the instrumented
	// handler after limiter admission, letting tests hold a request
	// in-flight deterministically.
	testHookStart func(endpoint string)
}

// Config is the full constructor input: request limits plus the bounds of
// the three serving subsystems. The zero value of each subsystem section
// gets that subsystem's defaults, so Config{Limits: l, Logger: lg} is
// equivalent to New(l, lg).
type Config struct {
	Limits Limits
	Logger *slog.Logger
	// Store bounds the graph registry (Dir enables disk persistence). The
	// Logger and OnInvalidate fields are managed by the server.
	Store store.Options
	// Cache bounds the solve-result cache. OnEvict is managed by the
	// server.
	Cache solvecache.Options
	// Jobs sizes the async queue and worker pool. Gate and OnFinish are
	// managed by the server (workers share the request limiter).
	Jobs jobs.Options
	// Faults, when non-nil, injects failures into every /v1/* request —
	// the -fault-spec flag. Store.Faults separately covers disk writes.
	Faults *faults.Injector
	// FaultControl mounts /debug/faults so the injector can be inspected
	// and swapped at runtime. Meant for test and chaos builds only: the
	// endpoint is unauthenticated load-breaking power.
	FaultControl bool
	// Profilez configures the continuous-profiling capturer behind
	// /debug/profilez (capture directory, retention bounds, periodic
	// interval, trigger cooldown). The zero value works: on-demand and
	// trigger captures into an owned temp directory, no periodic loop.
	// The Logger and OnCapture fields are managed by the server.
	Profilez profilez.Options
	// EnablePprof mounts the standard net/http/pprof handlers under
	// /debug/pprof/ on the same mux as the other /debug/* pages — the
	// -pprof flag. /debug/profilez exists independently of it: profilez
	// snapshots and retains, /debug/pprof serves live one-shot pulls.
	EnablePprof bool
	// SLO enables the burn-rate monitor, which each interval records the
	// registry snapshot /metrics serves (no HTTP hop, no text) for
	// /debug/slo and the statusz RED table. The zero value leaves it off:
	// no background loop, /debug/slo reports disabled.
	SLO slo.Config
}

// New returns a Server with the given limits and default subsystem bounds;
// a nil logger discards logs.
func New(limits Limits, logger *slog.Logger) *Server {
	s, err := NewWithConfig(Config{Limits: limits, Logger: logger})
	if err != nil {
		// Unreachable: construction only fails when Store.Dir cannot be
		// created, and this path passes no Dir.
		panic(err)
	}
	return s
}

// NewWithConfig returns a Server wired per cfg. It can fail only when
// Store.Dir is set and unusable (the registry reloads persisted graphs at
// startup). Call Close when done to drain the job workers.
func NewWithConfig(cfg Config) (*Server, error) {
	limits := cfg.Limits
	if limits.MaxBodyBytes <= 0 {
		limits.MaxBodyBytes = 64 << 20
	}
	s := &Server{
		limits:  limits,
		logger:  cfg.Logger,
		met:     newServerMetrics(),
		tracer:  trace.New(trace.DefaultCapacity),
		started: time.Now(),
	}
	if limits.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, limits.MaxConcurrent)
	}

	cacheOpts := cfg.Cache
	cacheOpts.OnEvict = func(solvecache.Key) { s.met.cacheEvictions.With().Inc() }
	s.cache = solvecache.New(cacheOpts)

	storeOpts := cfg.Store
	storeOpts.Logger = cfg.Logger
	storeOpts.OnInvalidate = func(name, hash string) {
		// The registry dropped this content (replace, delete or eviction);
		// every cached result derived from it is now unreachable garbage.
		n := s.cache.InvalidateGraph(hash)
		s.met.cacheInvalidations.With().Add(int64(n))
	}
	reg, err := store.New(storeOpts)
	if err != nil {
		return nil, err
	}
	s.store = reg

	jobOpts := cfg.Jobs
	jobOpts.Gate = s.sem
	jobOpts.OnFinish = func(state jobs.State) { s.met.jobsTotal.With(string(state)).Inc() }
	s.jobs = jobs.New(jobOpts)

	s.faultControl = cfg.FaultControl
	if cfg.Faults != nil {
		s.faultInj.Store(cfg.Faults)
	}

	s.accountant = profilez.NewAccountant()
	profOpts := cfg.Profilez
	profOpts.Logger = cfg.Logger
	profOpts.OnCapture = func(e profilez.Entry) {
		s.met.profilezCaptures.With(string(e.Kind), e.Trigger).Inc()
	}
	s.capturer = profilez.New(profOpts)
	s.capturer.Start()
	s.enablePprof = cfg.EnablePprof
	if cfg.SLO.Enabled() {
		s.monitor = slo.NewMonitor(slo.MonitorOptions{
			Config: cfg.SLO,
			Scrape: func() (*promtext.Metrics, error) { return s.snapshot(), nil },
			Alerts: s.met.alerts,
			Logger: s.logger,
		})
		s.monitor.Start()
	}
	return s, nil
}

// Close drains the async job workers (cancelling queued and running jobs)
// and stops the profile capturer. The HTTP handlers stay usable; only job
// submission starts failing.
func (s *Server) Close() {
	s.jobs.Close()
	s.capturer.Close()
	if s.monitor != nil {
		s.monitor.Close()
	}
}

// Monitor exposes the SLO monitor; nil unless Config.SLO enables it.
func (s *Server) Monitor() *slo.Monitor { return s.monitor }

// Store exposes the graph registry (tests, embedders).
func (s *Server) Store() *store.Registry { return s.store }

// Cache exposes the solve-result cache (tests, embedders).
func (s *Server) Cache() *solvecache.Cache { return s.cache }

// EnableTracing turns the flight recorder on: every sample-th /v1/*
// request records a span tree into a ring of the given capacity
// (capacity <= 0 keeps the default). Call before serving traffic.
func (s *Server) EnableTracing(sample, capacity int) {
	s.traceEvery = sample
	if capacity > 0 {
		s.tracer = trace.New(capacity)
	}
}

// Tracer exposes the flight recorder (tests, embedders).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Profilez exposes the profile capturer (tests, embedders).
func (s *Server) Profilez() *profilez.Capturer { return s.capturer }

// serverMetrics is the instrument set, one per Server so tests and
// multi-tenant embeddings do not share state.
type serverMetrics struct {
	registry *metrics.Registry
	requests *metrics.CounterVec   // prefcover_http_requests_total{endpoint,code}
	latency  *metrics.HistogramVec // prefcover_http_request_duration_seconds{endpoint}
	inFlight *metrics.GaugeVec     // prefcover_http_in_flight_requests
	rejected *metrics.CounterVec   // prefcover_http_rejected_total{endpoint,reason}
	// alerts carries the SLO alert lifecycle in the Prometheus ALERTS
	// convention: the series for an alert's current state is 1.
	alerts *metrics.GaugeVec // ALERTS{alertname,endpoint,severity,state}

	solverIterations *metrics.CounterVec   // prefcover_solver_iterations_total{strategy}
	solverEvals      *metrics.CounterVec   // prefcover_solver_gain_evaluations_total{strategy}
	solverReevals    *metrics.CounterVec   // prefcover_solver_heap_reevaluations_total{strategy}
	solves           *metrics.CounterVec   // prefcover_solver_solves_total{strategy,outcome}
	solveStage       *metrics.HistogramVec // prefcover_solve_stage_seconds{stage}

	// Per-solve resource attribution and the approximation-gap
	// certificate (internal/profilez).
	solveCPUSeconds  *metrics.FloatGaugeVec // prefcover_solve_resource_cpu_seconds_total{strategy}
	solveAllocBytes  *metrics.CounterVec    // prefcover_solve_resource_alloc_bytes_total{strategy}
	solveGCPause     *metrics.FloatGaugeVec // prefcover_solve_resource_gc_pause_seconds_total{strategy}
	approxGap        *metrics.HistogramVec  // prefcover_solve_approx_gap{strategy}
	profilezCaptures *metrics.CounterVec    // prefcover_profilez_captures_total{kind,trigger}
	profilezFiles    *metrics.GaugeVec      // prefcover_profilez_ring_files
	profilezBytes    *metrics.GaugeVec      // prefcover_profilez_ring_bytes

	// Serving-layer subsystems (registry, solve cache, job queue).
	cacheOps           *metrics.CounterVec // prefcover_solvecache_requests_total{status}
	cacheEvictions     *metrics.CounterVec // prefcover_solvecache_evictions_total
	cacheInvalidations *metrics.CounterVec // prefcover_solvecache_invalidated_total
	cacheEntries       *metrics.GaugeVec   // prefcover_solvecache_entries
	cacheBytes         *metrics.GaugeVec   // prefcover_solvecache_bytes
	storeGraphs        *metrics.GaugeVec   // prefcover_store_graphs
	storeBytes         *metrics.GaugeVec   // prefcover_store_bytes
	graphSolves        *metrics.GaugeVec   // prefcover_store_graph_solves{graph}
	jobsTotal          *metrics.CounterVec // prefcover_jobs_total{outcome}
	jobsQueueDepth     *metrics.GaugeVec   // prefcover_jobs_queue_depth
	jobsRunning        *metrics.GaugeVec   // prefcover_jobs_running

	// Runtime telemetry, refreshed per scrape (updateRuntime).
	goroutines *metrics.GaugeVec      // prefcover_runtime_goroutines
	heapAlloc  *metrics.GaugeVec      // prefcover_runtime_heap_alloc_bytes
	heapSys    *metrics.GaugeVec      // prefcover_runtime_heap_sys_bytes
	gcCycles   *metrics.GaugeVec      // prefcover_runtime_gc_cycles_total
	gcPause    *metrics.FloatGaugeVec // prefcover_runtime_gc_pause_seconds_total
	uptime     *metrics.FloatGaugeVec // prefcover_process_uptime_seconds
}

func newServerMetrics() *serverMetrics {
	r := metrics.NewRegistry()
	return &serverMetrics{
		registry: r,
		requests: r.NewCounter("prefcover_http_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
		latency: r.NewHistogram("prefcover_http_request_duration_seconds",
			"End-to-end request latency.", nil, "endpoint"),
		inFlight: r.NewGauge("prefcover_http_in_flight_requests",
			"Requests currently executing."),
		rejected: r.NewCounter("prefcover_http_rejected_total",
			"Requests rejected before execution, by reason.", "endpoint", "reason"),
		alerts: r.NewGauge("ALERTS",
			"SLO burn-rate alerts: 1 on the series matching each alert's current state.",
			"alertname", "endpoint", "severity", "state"),
		solverIterations: r.NewCounter("prefcover_solver_iterations_total",
			"Greedy selections performed, by strategy.", "strategy"),
		solverEvals: r.NewCounter("prefcover_solver_gain_evaluations_total",
			"Marginal-gain evaluations performed, by strategy.", "strategy"),
		solverReevals: r.NewCounter("prefcover_solver_heap_reevaluations_total",
			"Lazy-heap stale-bound recomputations, by strategy.", "strategy"),
		solves: r.NewCounter("prefcover_solver_solves_total",
			"Solver runs, by strategy and outcome (ok/canceled/error).", "strategy", "outcome"),
		// Per-iteration stages run from sub-microsecond (cache-warm commits)
		// to ~1s (scan picks on large graphs), so the buckets run finer than
		// the request-latency defaults.
		solveStage: r.NewHistogram("prefcover_solve_stage_seconds",
			"Per-iteration solver stage durations (gain_eval, node_commit, progress_callback).",
			[]float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1},
			"stage"),
		solveCPUSeconds: r.NewFloatGauge("prefcover_solve_resource_cpu_seconds_total",
			"Cumulative process CPU seconds attributed to solver runs, by strategy.", "strategy"),
		solveAllocBytes: r.NewCounter("prefcover_solve_resource_alloc_bytes_total",
			"Cumulative heap bytes allocated during solver runs, by strategy.", "strategy"),
		solveGCPause: r.NewFloatGauge("prefcover_solve_resource_gc_pause_seconds_total",
			"Cumulative GC stop-the-world pause seconds elapsed during solver runs, by strategy.", "strategy"),
		// The gap certificate lives in [0,1]; most solves certify within a
		// few percent, so the buckets concentrate near zero.
		approxGap: r.NewHistogram("prefcover_solve_approx_gap",
			"Certified upper bound on how far the greedy cover can be below the optimal size-k cover (min over iterations of C(S_i)+k*maxRemainingGain_i, capped at 1, minus the final cover).",
			[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1},
			"strategy"),
		profilezCaptures: r.NewCounter("prefcover_profilez_captures_total",
			"Profiles captured into the /debug/profilez ring, by kind and trigger.", "kind", "trigger"),
		profilezFiles: r.NewGauge("prefcover_profilez_ring_files",
			"Profile captures currently retained on disk."),
		profilezBytes: r.NewGauge("prefcover_profilez_ring_bytes",
			"Bytes of profile captures currently retained on disk."),
		cacheOps: r.NewCounter("prefcover_solvecache_requests_total",
			"Reference-solve cache outcomes (hit/miss/coalesced).", "status"),
		cacheEvictions: r.NewCounter("prefcover_solvecache_evictions_total",
			"Cached solve results evicted by the LRU bound."),
		cacheInvalidations: r.NewCounter("prefcover_solvecache_invalidated_total",
			"Cached solve results dropped because their graph content was replaced or deleted."),
		cacheEntries: r.NewGauge("prefcover_solvecache_entries",
			"Cached solve results at scrape time."),
		cacheBytes: r.NewGauge("prefcover_solvecache_bytes",
			"Approximate bytes retained by cached solve results."),
		storeGraphs: r.NewGauge("prefcover_store_graphs",
			"Graphs registered at scrape time."),
		storeBytes: r.NewGauge("prefcover_store_bytes",
			"Approximate bytes of registered graph content."),
		graphSolves: r.NewGauge("prefcover_store_graph_solves",
			"Solver runs recorded against each registered graph.", "graph"),
		jobsTotal: r.NewCounter("prefcover_jobs_total",
			"Async jobs reaching a terminal state, by outcome.", "outcome"),
		jobsQueueDepth: r.NewGauge("prefcover_jobs_queue_depth",
			"Async jobs queued but not yet running."),
		jobsRunning: r.NewGauge("prefcover_jobs_running",
			"Async jobs executing at scrape time."),
		goroutines: r.NewGauge("prefcover_runtime_goroutines",
			"Goroutines at scrape time."),
		heapAlloc: r.NewGauge("prefcover_runtime_heap_alloc_bytes",
			"Bytes of allocated heap objects at scrape time."),
		heapSys: r.NewGauge("prefcover_runtime_heap_sys_bytes",
			"Bytes of heap obtained from the OS."),
		gcCycles: r.NewGauge("prefcover_runtime_gc_cycles_total",
			"Completed GC cycles since process start."),
		gcPause: r.NewFloatGauge("prefcover_runtime_gc_pause_seconds_total",
			"Cumulative GC stop-the-world pause seconds."),
		uptime: r.NewFloatGauge("prefcover_process_uptime_seconds",
			"Seconds since the server was constructed."),
	}
}

// Handler returns the routed, instrumented http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", false, s.handleHealth))
	mux.HandleFunc("/readyz", s.instrument("/readyz", false, s.handleReady))
	mux.HandleFunc("/version", s.instrument("/version", false, s.handleVersion))
	mux.Handle("/metrics", metrics.Handler(s.snapshot))
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/debug/statusz", s.handleStatusz)
	mux.Handle("/debug/profilez", s.capturer.Handler())
	mux.Handle("/debug/slo", s.monitor.DebugHandler())
	if s.enablePprof {
		// The stock pprof handlers, on the same mux as every other
		// /debug/* page (no second listener): live one-shot pulls for
		// `go tool pprof http://...`, alongside profilez's retained ring.
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	// withFaults sits inside instrument so injected failures are metered
	// and logged like organic ones; it is a no-op until an injector is
	// installed (-fault-spec or /debug/faults).
	mux.HandleFunc("/v1/adapt", s.instrument("/v1/adapt", true, s.withFaults(s.handleAdapt)))
	mux.HandleFunc("/v1/solve", s.instrument("/v1/solve", true, s.withFaults(s.handleSolve)))
	mux.HandleFunc("/v1/pipeline", s.instrument("/v1/pipeline", true, s.withFaults(s.handlePipeline)))
	mux.HandleFunc("/v1/stats", s.instrument("/v1/stats", true, s.withFaults(s.handleStats)))
	mux.HandleFunc("/v1/graphs", s.instrument("/v1/graphs", false, s.withFaults(s.handleGraphList)))
	mux.HandleFunc("/v1/graphs/", s.instrument("/v1/graphs/{name}", true, s.withFaults(s.handleGraph)))
	// Job endpoints bypass the request limiter: submission only enqueues
	// (the solve itself acquires a slot from the worker side) and status
	// polling must stay available while every slot is busy solving.
	mux.HandleFunc("/v1/jobs", s.instrument("/v1/jobs", false, s.withFaults(s.handleJobs)))
	mux.HandleFunc("/v1/jobs/", s.instrument("/v1/jobs/{id}", false, s.withFaults(s.handleJob)))
	if s.faultControl {
		mux.HandleFunc("/debug/faults", s.instrument("/debug/faults", false, s.handleFaults))
	}
	return mux
}

// errCapacity is the 429 load-shed error.
func errCapacity(maxConcurrent int) error {
	return fmt.Errorf("server at capacity (%d concurrent requests)", maxConcurrent)
}

// requestCtx derives the one work deadline: ctx — the client connection
// context, so disconnects cancel the work, or a job's — bounded by
// SolveTimeout. A ctx that already has an earlier deadline keeps it, so a
// pipeline's adaptation and solve share one.
func (s *Server) requestCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.limits.SolveTimeout > 0 {
		return context.WithTimeout(ctx, s.limits.SolveTimeout)
	}
	return ctx, func() {}
}

// writeWorkError maps a pipeline/solve failure to a status: deadline and
// cancellation become 503 (the request was valid, the server gave up), a
// result JSON cannot carry 500, everything else stays a client error.
func (s *Server) writeWorkError(w http.ResponseWriter, r *http.Request, endpoint string, err error) {
	var unencodable *json.UnsupportedValueError
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.met.rejected.With(endpoint, "timeout").Inc()
		s.writeError(w, r, http.StatusServiceUnavailable, fmt.Errorf("request aborted: %w", err))
	case errors.As(err, &unencodable):
		s.writeError(w, r, http.StatusInternalServerError, err)
	default:
		s.writeError(w, r, http.StatusBadRequest, err)
	}
}

// solve runs the solver with metrics, tracing, profiling attribution and
// cancellation attached: when the request is being recorded, a "solve"
// span wraps the run and the ProgressEvent stream is folded into one
// child span per greedy iteration (no extra solver plumbing). The solver
// goroutine carries pprof labels (graph/strategy/endpoint/k_bucket/job)
// so CPU samples are attributable per workload, per-solve resource usage
// (CPU, allocations, GC pause) is measured around the run, and the
// iteration stream's MaxRemainingGain bounds are folded into the
// approximation-gap certificate. name is the graph's label in profiles
// and accounting: its registry name, or "inline" for a graph the request
// carried, so every CPU sample is attributable by graph. The returned
// Usage is nil only when the solver never ran.
func (s *Server) solve(ctx context.Context, name string, g *prefcover.Graph, opts prefcover.Options) (*prefcover.Solution, *profilez.Usage, error) {
	strategy := opts.StrategyName()
	_, span := trace.StartSpan(ctx, "solve")
	span.SetAttr("strategy", strategy)
	defer span.End()
	recordIteration := trace.IterationRecorderStages(span, func(stage string, seconds float64) {
		s.met.solveStage.With(stage).Observe(seconds)
	})
	var reevals int64
	// The certificate: after iteration i any size-k solution satisfies
	// f(OPT_k) <= C(S_i) + k*bound_i (monotone submodularity), so the min
	// over iterations — capped at 1, cover can't exceed it — upper-bounds
	// the optimum, and minUB - finalCover bounds the approximation gap.
	minUB := math.Inf(1)
	budgetK := float64(opts.K)
	// Chain rather than replace any caller-supplied Progress hook (async
	// jobs feed their status endpoint through it).
	prev := opts.Progress
	opts.Progress = func(ev prefcover.ProgressEvent) {
		reevals += ev.Reevaluated
		if budgetK > 0 && ev.MaxRemainingGain >= 0 {
			ub := ev.Cover + budgetK*ev.MaxRemainingGain
			if ub > 1 {
				ub = 1
			}
			if ub < minUB {
				minUB = ub
			}
		}
		recordIteration(ev)
		if prev != nil {
			prev(ev)
		}
	}

	labels := profilez.SolveLabels{
		Graph:    name,
		Strategy: strategy,
		Endpoint: endpointFrom(ctx),
		K:        opts.K,
		Job:      jobs.IDFrom(ctx),
	}
	var sol *prefcover.Solution
	var err error
	before := profilez.TakeSample()
	profilez.Do(ctx, labels, func(ctx context.Context) {
		sol, err = prefcover.SolveContext(ctx, g, opts)
	})
	usage := profilez.Since(before)

	s.met.solveCPUSeconds.With(strategy).Add(float64(usage.CPUNanos) / 1e9)
	s.met.solveAllocBytes.With(strategy).Add(usage.AllocBytes)
	s.met.solveGCPause.With(strategy).Add(float64(usage.GCPauseNanos) / 1e9)
	s.accountant.Record(labels.Graph, strategy, usage)
	span.SetAttr("wallNs", usage.WallNanos)
	span.SetAttr("cpuNs", usage.CPUNanos)
	span.SetAttr("allocBytes", usage.AllocBytes)
	span.SetAttr("gcPauseNs", usage.GCPauseNanos)

	if sol != nil {
		s.met.solverIterations.With(strategy).Add(int64(len(sol.Order)))
		s.met.solverEvals.With(strategy).Add(sol.GainEvals)
		s.met.solverReevals.With(strategy).Add(reevals)
		span.SetAttr("iterations", len(sol.Order))
		span.SetAttr("gainEvals", sol.GainEvals)
		span.SetAttr("cover", sol.Cover)
		if err == nil && !math.IsInf(minUB, 1) {
			gap := minUB - sol.Cover
			if gap < 0 {
				gap = 0 // float slack; the bound can't be beaten for real
			}
			span.SetAttr("optUpperBound", minUB)
			span.SetAttr("approxGap", gap)
			s.met.approxGap.With(strategy).Observe(gap)
		}
	}
	outcome := "ok"
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		outcome = "canceled"
	case err != nil:
		outcome = "error"
	}
	span.SetAttr("outcome", outcome)
	s.met.solves.With(strategy, outcome).Inc()
	return sol, &usage, err
}

// writeError logs a failure and answers it with the JSON error envelope,
// whose requestId lets a client quote the exact server-side log lines. A
// body cut off at MaxBodyBytes is 413 and a graph body in a media type no
// codec reads is 415, whatever status the handler chose, so every handler
// that reads a body reports them the same way.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	var tooLarge *http.MaxBytesError
	var media *errUnsupportedMedia
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &media):
		status = http.StatusUnsupportedMediaType
	}
	reqID := requestIDFrom(r.Context())
	if s.logger != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelWarn, "request failed",
			slog.String("error", err.Error()),
			slog.Int("status", status),
			slog.String("request_id", reqID),
		)
	}
	debugpage.Error(w, status, err)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 200 while the server can take new
// work, 503 once the async job queue is saturated (a submit would be
// rejected with ErrQueueFull). Liveness stays on /healthz; gateways and
// orchestrators should probe this endpoint instead.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := apiclient.Ready{Status: "ready", Load: apiclient.Load{
		Graphs:     s.store.Len(),
		QueueDepth: s.jobs.Depth(),
		QueueCap:   s.jobs.Cap(),
		Running:    s.jobs.Running(),
		InFlight:   len(s.sem),
	}}
	if resp.QueueDepth >= resp.QueueCap {
		resp.Status = "unavailable"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// handleVersion reports the build identity, so traces and benchmark
// trajectories can be tied to an exact revision.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, version.Get())
}

// adaptResponse is the /v1/adapt reply.
type adaptResponse struct {
	Variant          string          `json:"variant"`
	VariantConfident bool            `json:"variantConfident"`
	Report           *adapt.Report   `json:"report"`
	Graph            json.RawMessage `json:"graph"`
}

// readSessions buffers the request clickstream (the trace's "parse"
// phase).
func (s *Server) readSessions(r *http.Request) (*clickstream.Store, error) {
	_, span := trace.StartSpan(r.Context(), "parse")
	defer span.End()
	store, err := clickstream.ReadAll(clickstream.NewJSONLReader(r.Body))
	if err != nil {
		return nil, fmt.Errorf("parsing JSONL clickstream: %w", err)
	}
	if store.Len() == 0 {
		return nil, fmt.Errorf("empty clickstream")
	}
	span.SetAttr("sessions", store.Len())
	return store, nil
}

// adaptStore runs the shared adaptation flow (internal/adapt.Adapt) as
// the trace's "adapt" phase, with "recommend" and "rebuild" sub-spans on
// the auto path, and returns the graph with its /v1/adapt payload. A nil
// forced lets the adaptation recommend the variant.
func adaptStore(ctx context.Context, store *clickstream.Store, forced *prefcover.Variant) (*prefcover.Graph, adaptResponse, error) {
	ctx, span := trace.StartSpan(ctx, "adapt")
	g, rep, variant, confident, err := iadapt.Adapt(store, forced, iadapt.Options{Ctx: ctx})
	if g != nil {
		span.SetAttr("nodes", g.NumNodes())
		span.SetAttr("edges", g.NumEdges())
	}
	span.End()
	if err != nil {
		return nil, adaptResponse{}, err
	}
	var buf bytes.Buffer
	err = prefcover.WriteGraphJSON(&buf, g)
	return g, adaptResponse{
		Variant:          variant.String(),
		VariantConfident: confident,
		Report:           rep,
		Graph:            bytes.TrimSpace(buf.Bytes()),
	}, err
}

// adaptVariant reads the variant parameter of /v1/adapt and /v1/pipeline:
// absent or auto lets the adaptation recommend one, and returns nil.
func adaptVariant(q url.Values) (*prefcover.Variant, error) {
	v := q.Get("variant")
	if v == "" || v == "auto" {
		return nil, nil
	}
	variant, err := prefcover.ParseVariant(v)
	return &variant, err
}

func (s *Server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethods(w, r, http.MethodPost) {
		return
	}
	store, err := s.readSessions(r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	forced, err := adaptVariant(r.URL.Query())
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r.Context())
	defer cancel()
	_, resp, err := adaptStore(ctx, store, forced)
	if err != nil {
		s.writeWorkError(w, r, "/v1/adapt", err)
		return
	}
	writeJSON(w, resp)
}

// solveResponse is the /v1/solve and /v1/pipeline solver payload.
type solveResponse struct {
	Variant  string    `json:"variant"`
	K        int       `json:"k"`
	Cover    float64   `json:"cover"`
	Reached  bool      `json:"reached"`
	Order    []string  `json:"order"`
	Gains    []float64 `json:"gains"`
	Coverage []float64 `json:"coverage"`
	// Resources is the per-solve resource accounting when the solver
	// actually ran for this response; absent on cache hits, which cost no
	// solver work by construction.
	Resources *profilez.Usage `json:"resources,omitempty"`
}

// readGraphBody parses the request graph (the trace's "parse" phase) in
// the format the Content-Type negotiates: JSON by default, the binary or
// TSV codec on request, 415 for anything unrecognized.
func readGraphBody(r *http.Request) (*prefcover.Graph, error) {
	format, err := graphFormatFromContentType(r.Header.Get("Content-Type"))
	if err != nil {
		return nil, err
	}
	_, span := trace.StartSpan(r.Context(), "parse")
	defer span.End()
	g, err := decodeGraph(r.Body, format)
	if err != nil {
		return nil, err
	}
	span.SetAttr("nodes", g.NumNodes())
	span.SetAttr("edges", g.NumEdges())
	return g, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethods(w, r, http.MethodPost) {
		return
	}
	req, err := jobs.ParseQuery(r.URL.Query())
	if err = s.validate(&req, err); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	// A JSON body may be a reference ({"graph_ref": "name"}) instead of an
	// inline graph; binary and TSV bodies are always inline.
	format, err := graphFormatFromContentType(r.Header.Get("Content-Type"))
	if err != nil {
		s.writeError(w, r, http.StatusUnsupportedMediaType, err)
		return
	}
	if format == formatJSON {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		req.GraphRef = jobs.GraphRef(body)
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	var g *prefcover.Graph
	if req.GraphRef == "" {
		if g, err = readGraphBody(r); err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
	}
	t, status, err := s.resolve(&req, g)
	if err != nil {
		s.writeError(w, r, status, err)
		return
	}
	buf := getRespBuf()
	defer putRespBuf(buf)
	var cstat solvecache.Status
	if *buf, cstat, err = s.answer(r.Context(), t, *buf); err != nil {
		s.writeWorkError(w, r, "/v1/solve", err)
		return
	}
	if t.entry != nil {
		w.Header().Set("X-Prefcover-Cache", cstat.String())
	}
	writeRawJSON(w, *buf)
}

// handleStats summarizes an uploaded graph (Table 2-style columns plus
// degree structure) without solving anything.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethods(w, r, http.MethodPost) {
		return
	}
	g, err := readGraphBody(r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, prefcover.ComputeStats(g))
}

// pipelineResponse is the /v1/pipeline reply; Solve is an encoded
// solveResponse.
type pipelineResponse struct {
	Adapt adaptResponse   `json:"adapt"`
	Solve json.RawMessage `json:"solve"`
}

// handlePipeline adapts the clickstream body and answers the request on
// the adapted graph. The adaptation may recommend the variant, so until
// then the request is validated under a stand-in one.
func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethods(w, r, http.MethodPost) {
		return
	}
	q := r.URL.Query()
	forced, err := adaptVariant(q)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if forced == nil {
		q.Set("variant", prefcover.Independent.String())
	}
	req, err := jobs.ParseQuery(q)
	if err = s.validate(&req, err); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	store, err := s.readSessions(r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestCtx(r.Context())
	defer cancel()
	g, adapted, err := adaptStore(ctx, store, forced)
	if err != nil {
		s.writeWorkError(w, r, "/v1/pipeline", err)
		return
	}
	req.Variant = adapted.Variant
	t, status, err := s.resolve(&req, g)
	if err != nil {
		s.writeError(w, r, status, err)
		return
	}
	buf := getRespBuf()
	defer putRespBuf(buf)
	if *buf, _, err = s.answer(ctx, t, *buf); err != nil {
		s.writeWorkError(w, r, "/v1/pipeline", err)
		return
	}
	writeJSON(w, pipelineResponse{Adapt: adapted, Solve: *buf})
}
