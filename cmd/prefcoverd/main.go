// Command prefcoverd serves the paper's end-to-end system (Figure 2) over
// HTTP: POST a JSONL clickstream to /v1/pipeline?k=... and receive the
// retained inventory with coverage metadata; /v1/adapt and /v1/solve
// expose the two stages separately. GET /metrics exposes Prometheus
// telemetry (request latencies, solver work counters, runtime health);
// GET /version reports the build; GET /debug/traces dumps the
// flight-recorder ring populated by -trace-sample and by inbound W3C
// traceparent headers (distributed traces are always recorded); GET
// /debug/statusz is the one-page HTML operator dashboard; GET
// /debug/profilez indexes the continuous-profiling capture ring
// (periodic and trigger-fired pprof snapshots, with on-demand capture).
//
// The daemon is production-shaped: per-request solve deadlines
// (-solve-timeout), bounded concurrency with load shedding
// (-max-concurrent), and graceful shutdown — SIGINT/SIGTERM stops the
// listener, drains in-flight requests for up to -shutdown-grace, then
// exits. All logging is structured (log/slog) and every line of a
// request carries its X-Request-ID.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prefcover/internal/faults"
	"prefcover/internal/jobs"
	"prefcover/internal/profilez"
	"prefcover/internal/server"
	"prefcover/internal/slo"
	"prefcover/internal/store"
	"prefcover/internal/version"
)

func main() {
	os.Exit(run())
}

// run holds the real main so deferred cleanups survive the exit path.
func run() int {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxBody       = flag.Int64("max-body-mb", 64, "maximum request body size in MiB")
		maxK          = flag.Int("max-k", 0, "maximum solvable budget (0 = unlimited)")
		solveTimeout  = flag.Duration("solve-timeout", 0, "per-request deadline for /v1/* work; expired requests get 503 (0 = none)")
		maxConcurrent = flag.Int("max-concurrent", 0, "maximum concurrently executing /v1/* requests; excess get 429 (0 = unlimited)")
		slowThreshold = flag.Duration("slow-request-threshold", 0, "log one structured warning for every request at least this slow, with request and trace IDs (0 = off)")
		shutdownGrace = flag.Duration("shutdown-grace", 30*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
		quiet         = flag.Bool("quiet", false, "log warnings and errors only (suppresses access logs and lifecycle messages)")
		traceSample   = flag.Int("trace-sample", 0, "record a flight-recorder trace for every Nth /v1/* request, dumped at /debug/traces (0 = off)")
		traceCap      = flag.Int("trace-capacity", 256, "how many request traces the flight recorder retains")
		enablePprof   = flag.Bool("pprof", false, "mount the interactive net/http/pprof handlers under /debug/pprof/ beside the other /debug/* pages; /debug/profilez (always on) serves retained captures regardless")
		showVersion   = flag.Bool("version", false, "print the build identity and exit")

		profileDir      = flag.String("profile-dir", "", "retain /debug/profilez captures in this directory (empty = a private temp dir removed on exit)")
		profileInterval = flag.Duration("profile-interval", 0, "capture heap+goroutine profiles into the /debug/profilez ring this often (0 = trigger/on-demand only)")
		profileFiles    = flag.Int("profile-max-files", 0, "maximum retained profile captures before oldest-first eviction (0 = default)")
		profileBytes    = flag.Int64("profile-max-bytes-mb", 0, "maximum MiB of retained profile captures before oldest-first eviction (0 = default)")

		storeDir       = flag.String("store-dir", "", "persist registered graphs to this directory and reload them at startup (empty = in-memory only)")
		storeMaxGraphs = flag.Int("store-max-graphs", 0, "maximum registered graphs before LRU eviction (0 = default)")
		storeMaxBytes  = flag.Int64("store-max-bytes-mb", 0, "maximum MiB of registered graph content before LRU eviction (0 = default)")
		jobWorkers     = flag.Int("job-workers", 1, "async solve workers; they share -max-concurrent slots with synchronous requests")
		jobQueue       = flag.Int("job-queue", 0, "maximum queued async jobs before submissions get 429 (0 = default)")

		sloSpecText    = flag.String("slo-spec", "", "comma-separated SLO objectives for the burn-rate monitor, e.g. \"avail:/v1/solve:99.9,p99:/v1/solve:0.05\"; surfaced at /debug/slo and as ALERTS series on /metrics (empty = off)")
		scrapeInterval = flag.Duration("scrape-interval", 0, "metrics snapshot cadence for the SLO monitor; in -gateway mode this also enables node /metrics federation even without -slo-spec (0 = 10s when SLOs are on)")
		alertWebhook   = flag.String("alert-webhook", "", "POST SLO alert firing/resolved transitions to this URL as JSON, with retries (empty = off)")
		sloFastWindow  = flag.Duration("slo-fast-window", 0, "fast burn-rate evaluation window (0 = 5m)")
		sloSlowWindow  = flag.Duration("slo-slow-window", 0, "slow burn-rate evaluation window (0 = 1h)")
		sloFor         = flag.Duration("slo-for", 0, "how long a breach (or recovery) must persist before an alert fires (or resolves) (0 = 30s)")

		faultSpec     = flag.String("fault-spec", "", "inject faults into /v1/* requests, e.g. \"seed=7,error=0.05,throttle=0.02,latency=5ms@0.3\" (chaos testing; empty = off)")
		faultSpecDisk = flag.String("fault-spec-disk", "", "inject faults into -store-dir snapshot writes, same grammar as -fault-spec (empty = off)")
		faultControl  = flag.Bool("fault-control", false, "mount /debug/faults so the HTTP fault injector can be inspected and replaced at runtime (test builds only)")

		gateway = flag.Bool("gateway", false, "serve as a cluster routing gateway over the -nodes backends instead of a single node")
		gf      gatewayFlags
	)
	flag.StringVar(&gf.nodes, "nodes", "", "comma-separated backend prefcoverd base URLs for -gateway (host:port or http://host:port)")
	flag.IntVar(&gf.replicas, "replicas", 0, "graphs are replicated to this many nodes in -gateway mode (0 = 2)")
	flag.IntVar(&gf.vnodes, "vnodes", 0, "virtual nodes per backend on the -gateway hash ring (0 = 128)")
	flag.DurationVar(&gf.probeInterval, "probe-interval", 0, "-gateway readiness-probe period (0 = 2s)")
	flag.DurationVar(&gf.probeTimeout, "probe-timeout", 0, "-gateway readiness-probe timeout (0 = 1s)")
	flag.DurationVar(&gf.requestTimeout, "request-timeout", 0, "-gateway per-attempt deadline for forwarded requests (0 = none)")
	flag.IntVar(&gf.maxAttempts, "max-attempts", 0, "-gateway failover budget per call, including the first attempt (0 = 3)")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Get())
		return 0
	}

	// One handler for everything — daemon lifecycle and per-request
	// access logs — so -quiet silences the whole process consistently
	// instead of only the injected half.
	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	sloSpec, err := slo.ParseSpec(*sloSpecText)
	if err != nil {
		logger.Error("bad -slo-spec", "error", err)
		return 1
	}
	// Both roles take the same monitor settings: a node self-scrapes its
	// own registry, the gateway federates its members'.
	sloCfg := slo.Config{
		Spec:           sloSpec,
		ScrapeInterval: *scrapeInterval,
		FastWindow:     *sloFastWindow,
		SlowWindow:     *sloSlowWindow,
		ForDuration:    *sloFor,
		Webhook:        *alertWebhook,
	}

	if *gateway {
		return runGateway(*addr, gf, sloCfg, *maxBody, *shutdownGrace, logger)
	}

	httpFaults, err := parseFaultFlag("fault-spec", *faultSpec, logger)
	if err != nil {
		return 1
	}
	diskFaults, err := parseFaultFlag("fault-spec-disk", *faultSpecDisk, logger)
	if err != nil {
		return 1
	}

	srv, err := server.NewWithConfig(server.Config{
		Limits: server.Limits{
			MaxBodyBytes:         *maxBody << 20,
			MaxSolveK:            *maxK,
			SolveTimeout:         *solveTimeout,
			MaxConcurrent:        *maxConcurrent,
			SlowRequestThreshold: *slowThreshold,
		},
		Logger: logger,
		Store: store.Options{
			Dir:       *storeDir,
			MaxGraphs: *storeMaxGraphs,
			MaxBytes:  *storeMaxBytes << 20,
			Faults:    diskFaults,
		},
		Jobs: jobs.Options{
			Workers:    *jobWorkers,
			QueueDepth: *jobQueue,
		},
		Faults:       httpFaults,
		FaultControl: *faultControl,
		EnablePprof:  *enablePprof,
		SLO:          sloCfg,
		Profilez: profilez.Options{
			Dir:      *profileDir,
			Interval: *profileInterval,
			MaxFiles: *profileFiles,
			MaxBytes: *profileBytes << 20,
		},
	})
	if err != nil {
		logger.Error("server construction failed", "error", err)
		return 1
	}
	defer srv.Close()
	if *traceSample > 0 {
		srv.EnableTracing(*traceSample, *traceCap)
	}
	return serve(*addr, srv.Handler(), *shutdownGrace, logger)
}

// serve is the lifecycle both roles share: listen on addr, serve handler
// until SIGINT/SIGTERM, then drain in-flight requests for up to grace.
// The "prefcoverd listening" line carries the resolved address, then
// attrs, then the version: with -addr 127.0.0.1:0 the kernel picks the
// port, and scripts (the smoke tests) read it from that line.
func serve(addr string, handler http.Handler, grace time.Duration, logger *slog.Logger, attrs ...any) int {
	httpServer := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Error("listener failed", "error", err)
		return 1
	}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()
	attrs = append(append([]any{"addr", ln.Addr().String()}, attrs...), "version", version.Get().String())
	logger.Info("prefcoverd listening", attrs...)

	select {
	case err := <-errc:
		// Serve failed before any shutdown was requested; ErrServerClosed
		// cannot happen on this path.
		logger.Error("listener failed", "error", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	logger.Info("prefcoverd shutting down", "drain_grace", grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown incomplete", "error", err)
		return 1
	}
	// Serve returns http.ErrServerClosed after a clean Shutdown; anything
	// else is a real serve error worth surfacing.
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve failed", "error", err)
		return 1
	}
	logger.Info("prefcoverd stopped")
	return 0
}

// parseFaultFlag builds an injector from a -fault-spec style flag; an
// empty or inject-nothing spec yields nil (faults fully disabled). The
// activation is logged loudly — a daemon quietly injecting failures would
// be a debugging nightmare.
func parseFaultFlag(name, text string, logger *slog.Logger) (*faults.Injector, error) {
	spec, err := faults.ParseSpec(text)
	if err != nil {
		logger.Error("bad -"+name, "error", err)
		return nil, err
	}
	if !spec.Enabled() {
		return nil, nil
	}
	logger.Warn("fault injection enabled", "flag", name, "spec", spec.String())
	return faults.New(spec), nil
}
