package server

// GET /debug/statusz: the one-glance operator page. Everything on it is
// read from state the server already keeps — the metrics snapshot /metrics
// renders, the flight recorder, the resource accountant, the fault
// injector — rendered as a single self-contained HTML document with no
// scripts or external fetches, so it works over the crudest tunnel.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"prefcover/internal/debugpage"
	"prefcover/internal/promtext"
	"prefcover/internal/slo"
	"prefcover/internal/tsdb"
	"prefcover/internal/version"
)

// Row caps of the slowest-traces and top-resource-consumers tables.
const (
	statuszSlowTraces   = 10
	statuszTopConsumers = 10
)

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !s.allowMethods(w, r, http.MethodGet) {
		return
	}
	snap := s.snapshot()
	v := version.Get()
	p := debugpage.New("prefcoverd statusz", "prefcoverd")

	// Build identity and process vitals.
	p.Section("Build")
	p.Row("module", v.Module)
	p.Row("version", v.Version)
	p.Row("revision", v.Revision)
	p.Row("go", v.GoVersion)
	p.Row("uptime", time.Since(s.started).Round(time.Second))
	p.Section("Runtime")
	gaugeRows(p, snap, "prefcover_runtime_goroutines", "prefcover_runtime_heap_alloc_bytes",
		"prefcover_runtime_heap_sys_bytes", "prefcover_runtime_gc_cycles_total", "prefcover_runtime_gc_pause_seconds_total")

	// Per-endpoint RED: requests and req/s, errors, and duration
	// quantiles interpolated from histogram bucket deltas, over the fast
	// SLO window when a monitor records one, else since boot.
	older, newer, elapsed, scope := slo.StatusWindow(s.monitor, snap, s.started)
	p.Section(fmt.Sprintf("Endpoints (RED, %s)", scope))
	p.Table("endpoint", "requests", "rate/s", "errors", "error %", "p50", "p90", "p99")
	for _, row := range tsdb.RED(older, newer, "prefcover_http_requests_total", "prefcover_http_request_duration_seconds", nil, "endpoint") {
		errPct, rate := 0.0, 0.0
		if row.Requests > 0 {
			errPct = 100 * row.Errors / row.Requests
		}
		if elapsed > 0 {
			rate = row.Requests / elapsed.Seconds()
		}
		// The p99 cell links to the slowest traced observation this
		// histogram has seen. The series is in the snapshot, so With creates none.
		var p99 any = quantileCell(0.99, row.Buckets)
		if _, id, ok := s.met.latency.With(row.Group[0]).Exemplar(); ok {
			p99 = debugpage.Link("/debug/traces?trace="+id, p99.(string))
		}
		p.Row(row.Group[0], int64(row.Requests), fmt.Sprintf("%.3f", rate), int64(row.Errors), fmt.Sprintf("%.1f%%", errPct),
			quantileCell(0.50, row.Buckets), quantileCell(0.90, row.Buckets), p99)
	}

	// Subsystem occupancy, the gauges /metrics reports.
	p.Section("Serving")
	gaugeRows(p, snap, "prefcover_store_graphs", "prefcover_store_bytes", "prefcover_solvecache_entries",
		"prefcover_solvecache_bytes", "prefcover_jobs_queue_depth", "prefcover_jobs_running")

	// Top resource consumers: cumulative per-solve accounting by
	// (graph, strategy), CPU-heaviest first — the "where does the solver
	// budget go" panel. Cache hits cost no solver work and are absent.
	p.Section("Top resource consumers (solves)")
	if top := s.accountant.Top(statuszTopConsumers); len(top) == 0 {
		p.Para("no solves yet")
	} else {
		p.Table("graph", "strategy", "solves", "cpu", "wall", "alloc", "objects", "gc pause")
		for _, c := range top {
			p.Row(c.Graph, c.Strategy, c.Solves, fmt.Sprintf("%.3fs", float64(c.CPUNanos)/1e9),
				fmt.Sprintf("%.3fs", float64(c.WallNanos)/1e9), c.AllocBytes, c.AllocObjects,
				fmt.Sprintf("%.6fs", float64(c.GCPauseNanos)/1e9))
		}
	}

	// Profile ring occupancy, linked to the index for downloads.
	files, bytes := s.capturer.Stats()
	p.Section("Profiles")
	p.Para(debugpage.Link("/debug/profilez", "/debug/profilez"), fmt.Sprintf(": %d captures retained, %d bytes", files, bytes))

	// Fault injection: loud when armed, one quiet line when not.
	p.Section("Faults")
	if inj := s.Faults(); inj != nil {
		p.Para(debugpage.HTML("<b>active:</b> "), debugpage.Code(inj.Spec().String()),
			" (injected so far: "+inj.CountsString()+")")
	} else {
		p.Para("none")
	}

	// The slowest recent traces, each linked to its filtered dump.
	p.Section(fmt.Sprintf("Slowest traces (last %d recorded, worst %d)", s.tracer.Capacity(), statuszSlowTraces))
	p.Table("trace", "name", "duration", "spans", "started")
	roots := s.tracer.Snapshot()
	sort.Slice(roots, func(i, j int) bool { return roots[i].Duration() > roots[j].Duration() })
	for _, root := range roots[:min(len(roots), statuszSlowTraces)] {
		p.Row(debugpage.Link("/debug/traces?trace="+root.TraceID(), root.TraceID()), root.Name(),
			root.Duration().Round(time.Microsecond), root.NumSpans(), root.Start().Format(time.RFC3339))
	}
	links := []string{"/metrics", "/debug/traces", "/debug/profilez"}
	if s.enablePprof {
		links = append(links, "/debug/pprof/")
	}
	p.Links(append(links, "/version")...)
	p.Write(w)
}

// gaugeRows writes one row per named gauge of snap, in decimal.
func gaugeRows(p *debugpage.Page, snap *promtext.Metrics, names ...string) {
	for _, name := range names {
		for _, g := range snap.Samples(name) {
			p.Row(name, strconv.FormatFloat(g.Value, 'f', -1, 64))
		}
	}
}

// quantileCell renders a latency quantile of a histogram's bucket deltas,
// "-" when there is none.
func quantileCell(q float64, buckets []tsdb.SeriesDelta) string {
	v, ok := tsdb.Quantile(q, buckets)
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.4fs", v)
}
