package server

// GET /debug/statusz: the one-glance operator page. Everything on it is
// read from state the server already keeps — the metrics registry, the
// flight recorder, the subsystem occupancy counters, the fault injector —
// rendered as a single self-contained HTML document with no scripts,
// stylesheets or external fetches, so it works over the crudest tunnel.

import (
	"fmt"
	"html"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"prefcover/internal/promtext"
	"prefcover/internal/slo"
	"prefcover/internal/trace"
	"prefcover/internal/tsdb"
	"prefcover/internal/version"
)

// endpointRED is one row of the per-endpoint RED table: rate, errors,
// duration quantiles, derived from the request counters and latency
// histograms of two snapshots.
type endpointRED struct {
	Endpoint      string
	Requests      int64
	Errors        int64  // 5xx responses
	P50, P90, P99 string // rendered cells, "-" without observations
	// ExemplarTrace is the trace ID of the slowest observation this
	// histogram has seen (when that request was traced): the p99 cell
	// links to it, turning a suspicious tail number into the exact
	// request that produced it.
	ExemplarTrace string
}

// redStats joins prefcover_http_requests_total (for counts and error
// rates) with prefcover_http_request_duration_seconds (for quantiles)
// between two snapshots (older nil: since boot), one row per endpoint,
// sorted by request volume.
func (s *Server) redStats(older, newer *promtext.Metrics) []endpointRED {
	byEndpoint := make(map[string]*endpointRED)
	row := func(labels promtext.Labels) *endpointRED {
		endpoint, _ := labels.Get("endpoint")
		r, ok := byEndpoint[endpoint]
		if !ok {
			r = &endpointRED{Endpoint: endpoint, P50: "-", P90: "-", P99: "-"}
			byEndpoint[endpoint] = r
		}
		return r
	}
	for _, d := range tsdb.Delta(older, newer, "prefcover_http_requests_total", nil) {
		r := row(d.Labels)
		r.Requests += int64(d.Increase)
		if code, _ := d.Labels.Get("code"); strings.HasPrefix(code, "5") {
			r.Errors += int64(d.Increase)
		}
	}
	buckets := make(map[*endpointRED][]tsdb.SeriesDelta)
	for _, d := range tsdb.Delta(older, newer, "prefcover_http_request_duration_seconds_bucket", nil) {
		r := row(d.Labels)
		buckets[r] = append(buckets[r], d)
	}
	for r, b := range buckets {
		r.P50, r.P90, r.P99 = quantileCell(tsdb.Quantile(0.50, b)), quantileCell(tsdb.Quantile(0.90, b)), quantileCell(tsdb.Quantile(0.99, b))
		// The series exists (it is in the snapshot), so With creates none.
		if _, id, ok := s.met.latency.With(r.Endpoint).Exemplar(); ok {
			r.ExemplarTrace = id
		}
	}
	rows := make([]endpointRED, 0, len(byEndpoint))
	for _, r := range byEndpoint {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Requests != rows[j].Requests {
			return rows[i].Requests > rows[j].Requests
		}
		return rows[i].Endpoint < rows[j].Endpoint
	})
	return rows
}

// slowTrace is one entry of the slowest-recent-traces table.
type slowTrace struct {
	Name     string
	TraceID  string
	Start    time.Time
	Duration time.Duration
	Spans    int
}

// slowestTraces returns the n slowest completed traces in the flight
// recorder, slowest first.
func (s *Server) slowestTraces(n int) []slowTrace {
	var out []slowTrace
	for _, root := range s.tracer.Snapshot() {
		out = append(out, slowTrace{
			Name:     root.Name(),
			TraceID:  root.TraceID(),
			Start:    root.Start(),
			Duration: root.Duration(),
			Spans:    root.NumSpans(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// statuszSlowTraces caps the slowest-traces table.
const statuszSlowTraces = 10

// statuszTopConsumers caps the top-resource-consumers table.
const statuszTopConsumers = 10

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethods(w, r, http.MethodGet) {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v := version.Get()

	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><title>prefcoverd statusz</title></head><body>\n")
	b.WriteString("<h1>prefcoverd</h1>\n")

	// Build identity and process vitals.
	fmt.Fprintf(&b, "<h2>Build</h2>\n<table border=\"1\" cellpadding=\"4\">\n")
	fmt.Fprintf(&b, "<tr><td>module</td><td>%s</td></tr>\n", html.EscapeString(v.Module))
	fmt.Fprintf(&b, "<tr><td>version</td><td>%s</td></tr>\n", html.EscapeString(v.Version))
	fmt.Fprintf(&b, "<tr><td>revision</td><td>%s</td></tr>\n", html.EscapeString(v.Revision))
	fmt.Fprintf(&b, "<tr><td>go</td><td>%s</td></tr>\n", html.EscapeString(v.GoVersion))
	fmt.Fprintf(&b, "<tr><td>uptime</td><td>%s</td></tr>\n", time.Since(s.started).Round(time.Second))
	b.WriteString("</table>\n")

	fmt.Fprintf(&b, "<h2>Runtime</h2>\n<table border=\"1\" cellpadding=\"4\">\n")
	fmt.Fprintf(&b, "<tr><td>prefcover_runtime_goroutines</td><td>%d</td></tr>\n", runtime.NumGoroutine())
	fmt.Fprintf(&b, "<tr><td>prefcover_runtime_heap_alloc_bytes</td><td>%d</td></tr>\n", ms.HeapAlloc)
	fmt.Fprintf(&b, "<tr><td>prefcover_runtime_heap_sys_bytes</td><td>%d</td></tr>\n", ms.HeapSys)
	fmt.Fprintf(&b, "<tr><td>prefcover_runtime_gc_cycles_total</td><td>%d</td></tr>\n", ms.NumGC)
	fmt.Fprintf(&b, "<tr><td>prefcover_runtime_gc_pause_seconds_total</td><td>%.6f</td></tr>\n", float64(ms.PauseTotalNs)/1e9)
	b.WriteString("</table>\n")

	// Per-endpoint RED: requests and req/s, errors, and duration
	// quantiles interpolated from histogram bucket deltas, over the fast
	// SLO window when a monitor records one, else since boot.
	older, newer, elapsed, scope := slo.StatusWindow(s.monitor, s.met.registry, s.started)
	fmt.Fprintf(&b, "<h2>Endpoints (RED, %s)</h2>\n", scope)
	b.WriteString("<table border=\"1\" cellpadding=\"4\">\n<tr><th>endpoint</th><th>requests</th><th>rate/s</th><th>errors</th><th>error %</th><th>p50</th><th>p90</th><th>p99</th></tr>\n")
	for _, row := range s.redStats(older, newer) {
		errPct := 0.0
		if row.Requests > 0 {
			errPct = 100 * float64(row.Errors) / float64(row.Requests)
		}
		rate := 0.0
		if elapsed > 0 {
			rate = float64(row.Requests) / elapsed.Seconds()
		}
		p99 := row.P99
		if row.ExemplarTrace != "" {
			id := html.EscapeString(row.ExemplarTrace)
			p99 = fmt.Sprintf("<a href=\"/debug/traces?trace=%s\" title=\"slowest observed request\">%s</a>", id, p99)
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%.3f</td><td>%d</td><td>%.1f%%</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(row.Endpoint), row.Requests, rate, row.Errors, errPct, row.P50, row.P90, p99)
	}
	b.WriteString("</table>\n")

	// Subsystem occupancy, same numbers the /metrics gauges report.
	b.WriteString("<h2>Serving</h2>\n<table border=\"1\" cellpadding=\"4\">\n")
	fmt.Fprintf(&b, "<tr><td>prefcover_store_graphs</td><td>%d</td></tr>\n", s.store.Len())
	fmt.Fprintf(&b, "<tr><td>prefcover_store_bytes</td><td>%d</td></tr>\n", s.store.TotalBytes())
	fmt.Fprintf(&b, "<tr><td>prefcover_solvecache_entries</td><td>%d</td></tr>\n", s.cache.Len())
	fmt.Fprintf(&b, "<tr><td>prefcover_solvecache_bytes</td><td>%d</td></tr>\n", s.cache.Bytes())
	fmt.Fprintf(&b, "<tr><td>prefcover_jobs_queue_depth</td><td>%d</td></tr>\n", s.jobs.Depth())
	fmt.Fprintf(&b, "<tr><td>prefcover_jobs_running</td><td>%d</td></tr>\n", s.jobs.Running())
	b.WriteString("</table>\n")

	// Top resource consumers: cumulative per-solve accounting by
	// (graph, strategy), CPU-heaviest first — the "where does the solver
	// budget go" panel. Cache hits cost no solver work and are absent.
	b.WriteString("<h2>Top resource consumers (solves)</h2>\n")
	if top := s.accountant.Top(statuszTopConsumers); len(top) == 0 {
		b.WriteString("<p>no solves yet</p>\n")
	} else {
		b.WriteString("<table border=\"1\" cellpadding=\"4\">\n<tr><th>graph</th><th>strategy</th><th>solves</th><th>cpu</th><th>wall</th><th>alloc</th><th>objects</th><th>gc pause</th></tr>\n")
		for _, c := range top {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%.3fs</td><td>%.3fs</td><td>%d</td><td>%d</td><td>%.6fs</td></tr>\n",
				html.EscapeString(c.Graph), html.EscapeString(c.Strategy), c.Solves,
				float64(c.CPUNanos)/1e9, float64(c.WallNanos)/1e9,
				c.AllocBytes, c.AllocObjects, float64(c.GCPauseNanos)/1e9)
		}
		b.WriteString("</table>\n")
	}

	// Profile ring occupancy, linked to the index for downloads.
	files, bytes := s.capturer.Stats()
	fmt.Fprintf(&b, "<h2>Profiles</h2>\n<p><a href=\"/debug/profilez\">/debug/profilez</a>: %d captures retained, %d bytes</p>\n", files, bytes)

	// Fault injection: loud when armed, one quiet line when not.
	b.WriteString("<h2>Faults</h2>\n")
	if inj := s.Faults(); inj != nil {
		fmt.Fprintf(&b, "<p><b>active:</b> <code>%s</code> (injected so far: %s)</p>\n",
			html.EscapeString(inj.Spec().String()), html.EscapeString(inj.CountsString()))
	} else {
		b.WriteString("<p>none</p>\n")
	}

	// The slowest recent traces, each linked to its filtered dump.
	fmt.Fprintf(&b, "<h2>Slowest traces (last %d recorded, worst %d)</h2>\n", trace.DefaultCapacity, statuszSlowTraces)
	b.WriteString("<table border=\"1\" cellpadding=\"4\">\n<tr><th>trace</th><th>name</th><th>duration</th><th>spans</th><th>started</th></tr>\n")
	for _, st := range s.slowestTraces(statuszSlowTraces) {
		id := html.EscapeString(st.TraceID)
		fmt.Fprintf(&b, "<tr><td><a href=\"/debug/traces?trace=%s\">%s</a></td><td>%s</td><td>%s</td><td>%d</td><td>%s</td></tr>\n",
			id, id, html.EscapeString(st.Name), st.Duration.Round(time.Microsecond), st.Spans,
			st.Start.Format(time.RFC3339))
	}
	b.WriteString("</table>\n")
	b.WriteString("<p><a href=\"/metrics\">/metrics</a> · <a href=\"/debug/traces\">/debug/traces</a> · <a href=\"/debug/profilez\">/debug/profilez</a>")
	if s.enablePprof {
		b.WriteString(" · <a href=\"/debug/pprof/\">/debug/pprof</a>")
	}
	b.WriteString(" · <a href=\"/version\">/version</a></p>\n")
	b.WriteString("</body></html>\n")

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// quantileCell renders a latency quantile, "-" when there is none.
func quantileCell(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.4fs", v)
}
