package server

// Request-scoped observability plumbing: request IDs, the flight-recorder
// root span per /v1/* request, the structured access log, and the runtime
// telemetry refreshed on every /metrics scrape.

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"prefcover/internal/apiclient"
	"prefcover/internal/promtext"
	"prefcover/internal/trace"
)

// reqIDKey is the context key carrying the request ID.
type reqIDKey struct{}

// requestIDFrom returns the request ID installed by instrument, or "".
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// endpointKey carries the instrumented endpoint pattern ("/v1/solve") so
// the solver path can label its pprof samples with the route that asked.
type endpointKey struct{}

func withEndpoint(ctx context.Context, endpoint string) context.Context {
	return context.WithValue(ctx, endpointKey{}, endpoint)
}

// endpointFrom returns the endpoint installed by instrument, or "".
func endpointFrom(ctx context.Context) string {
	ep, _ := ctx.Value(endpointKey{}).(string)
	return ep
}

// statusRecorder captures the response code and body size for the request
// counter and the access log.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// sampleTrace implements -trace-sample: true for every Nth instrumented
// request (the first request is always sampled when tracing is on).
func (s *Server) sampleTrace() bool {
	n := s.traceEvery
	if n <= 0 {
		return false
	}
	return (s.traceSeq.Add(1)-1)%int64(n) == 0
}

// instrument wraps an endpoint with the observability layers — request
// ID, root span, metrics, access log — and (for limited endpoints) the
// admission control layer.
func (s *Server) instrument(endpoint string, limited bool, h http.HandlerFunc) http.HandlerFunc {
	distributed := strings.HasPrefix(endpoint, "/v1/")
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := apiclient.RequestID(r.Header.Get("X-Request-ID"))
		w.Header().Set("X-Request-ID", reqID)
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		ctx := context.WithValue(r.Context(), reqIDKey{}, reqID)
		ctx = withEndpoint(ctx, endpoint)
		var root *trace.Span
		traceID := ""
		if distributed {
			// A sampled inbound traceparent continues the caller's
			// distributed trace: it is always recorded (the caller already
			// made the sampling decision) and parented to the caller's span.
			if sc, err := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader)); err == nil && sc.Sampled {
				root = s.tracer.RootContext("request "+endpoint, sc)
				traceID = sc.TraceID
				root.SetAttr("requestID", reqID)
			}
		}
		if root == nil && limited && s.sampleTrace() {
			root = s.tracer.Root("request "+endpoint, reqID)
			traceID = reqID
		}
		if root != nil {
			root.SetAttr("method", r.Method)
			ctx = trace.NewContext(ctx, root)
		}
		r = r.WithContext(ctx)
		start := time.Now()
		defer func() {
			dur := time.Since(start)
			// The latency observation carries the trace ID as an exemplar:
			// the histogram remembers which trace produced its slowest
			// sample, and statusz links the p99 cell to that trace.
			s.met.latency.With(endpoint).ObserveExemplar(dur.Seconds(), traceID)
			s.met.requests.With(endpoint, strconv.Itoa(sr.code)).Inc()
			if root != nil {
				root.SetAttr("status", sr.code)
				root.End()
			}
			s.accessLog(r, reqID, traceID, sr, dur)
			if t := s.limits.SlowRequestThreshold; t > 0 && dur >= t {
				if s.logger != nil {
					s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request",
						slog.String("endpoint", endpoint),
						slog.Int("status", sr.code),
						slog.Duration("duration", dur),
						slog.Duration("threshold", t),
						slog.String("request_id", reqID),
						slog.String("trace_id", traceID),
					)
				}
				// A breached threshold snapshots heap+goroutine profiles so
				// the state that made this request slow is retained even if
				// nobody is watching; the capturer's cooldown rate-limits it.
				s.capturer.Trigger("slow_request")
			}
		}()
		if limited && s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.met.rejected.With(endpoint, "capacity").Inc()
				s.writeError(sr, r, http.StatusTooManyRequests,
					errCapacity(s.limits.MaxConcurrent))
				return
			}
		}
		s.met.inFlight.With().Inc()
		defer s.met.inFlight.With().Dec()
		if s.testHookStart != nil {
			s.testHookStart(endpoint)
		}
		h(sr, r)
	}
}

// accessLog emits the one structured line per request the daemon's
// operators grep by request_id.
func (s *Server) accessLog(r *http.Request, reqID, traceID string, sr *statusRecorder, dur time.Duration) {
	if s.logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sr.code),
		slog.Int64("bytes", sr.bytes),
		slog.Duration("duration", dur),
		slog.String("request_id", reqID),
	}
	if traceID != "" && traceID != reqID {
		attrs = append(attrs, slog.String("trace_id", traceID))
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// snapshot refreshes the runtime and serving gauges and reads the
// registry: what /metrics serves and what the SLO monitor records.
func (s *Server) snapshot() *promtext.Metrics {
	s.met.updateRuntime(s.started)
	s.updateServing()
	return s.met.registry.Snapshot()
}

// updateServing snapshots the registry, cache and job queue into their
// gauges, once per scrape like the runtime set.
func (s *Server) updateServing() {
	s.met.storeGraphs.With().Set(int64(s.store.Len()))
	s.met.storeBytes.With().Set(s.store.TotalBytes())
	for _, info := range s.store.List() {
		s.met.graphSolves.With(info.Name).Set(info.Solves)
	}
	s.met.cacheEntries.With().Set(int64(s.cache.Len()))
	s.met.cacheBytes.With().Set(s.cache.Bytes())
	s.met.jobsQueueDepth.With().Set(int64(s.jobs.Depth()))
	s.met.jobsRunning.With().Set(int64(s.jobs.Running()))
	files, bytes := s.capturer.Stats()
	s.met.profilezFiles.With().Set(int64(files))
	s.met.profilezBytes.With().Set(bytes)
}

// updateRuntime snapshots process health into the runtime gauge set; it
// runs once per scrape so the gauges are exactly as fresh as Prometheus
// sees them.
func (m *serverMetrics) updateRuntime(started time.Time) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.goroutines.With().Set(int64(runtime.NumGoroutine()))
	m.heapAlloc.With().Set(int64(ms.HeapAlloc))
	m.heapSys.With().Set(int64(ms.HeapSys))
	m.gcCycles.With().Set(int64(ms.NumGC))
	m.gcPause.With().Set(float64(ms.PauseTotalNs) / 1e9)
	m.uptime.With().Set(time.Since(started).Seconds())
}

// handleTraces dumps the flight-recorder ring; trace.Serve documents the
// representations and query knobs.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethods(w, r, http.MethodGet) {
		return
	}
	if status, err := trace.Serve(w, r, s.tracer); err != nil {
		s.writeError(w, r, status, err)
	}
}
