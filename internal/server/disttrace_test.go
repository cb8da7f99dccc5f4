package server

// Distributed-tracing tests: one trace ID followed across the three hops
// of an async remote solve — client span → server request span → job
// worker span — plus the /debug/traces filtering and negotiation surface
// and the /debug/statusz page built on top of the unified data.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"prefcover/internal/jobs"
	"prefcover/internal/trace"
)

// findRoot returns the first recorded root span with the given name and
// trace ID, or nil.
func findRoot(roots []*trace.Span, name, traceID string) *trace.Span {
	for _, r := range roots {
		if r.Name() == name && r.TraceID() == traceID {
			return r
		}
	}
	return nil
}

// TestDistributedTraceThreeHops drives a submitted job like `prefcover
// remote job -trace` does: a client-side span injects traceparent on the
// POST, the middleware continues the trace in the request root span, and
// the job worker's solve spans join it across the queue boundary. Every
// hop must share the client's trace ID and parent to the span of the hop
// before it.
func TestDistributedTraceThreeHops(t *testing.T) {
	s, ts := newServingServer(t, Config{Jobs: jobs.Options{Workers: 1}})
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, servingGraph(t, 120)))

	// Hop 1: the client. One call span with one attempt child, exactly the
	// tree remoteClient.do builds; the attempt span is what crosses the wire.
	ct := trace.New(4)
	csc := trace.NewSpanContext()
	callSpan := ct.RootContext("call POST /v1/jobs", csc)
	attempt := callSpan.Child("attempt 1")

	reqBody, _ := json.Marshal(map[string]any{"graph_ref": "demo", "variant": "independent", "k": 6})
	hdr := http.Header{
		"Content-Type":          []string{"application/json"},
		trace.TraceparentHeader: []string{attempt.Context().Traceparent()},
	}
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", hdr, reqBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, data)
	}
	var submitted jobPayload
	if err := json.Unmarshal(data, &submitted); err != nil {
		t.Fatal(err)
	}
	// The job payload advertises the trace it belongs to, at submission
	// time and on every later status poll.
	if submitted.TraceID != csc.TraceID {
		t.Errorf("submitted traceId = %q, want %q", submitted.TraceID, csc.TraceID)
	}
	final := pollJob(t, ts.URL, submitted.ID)
	if final.State != "done" {
		t.Fatalf("job final state = %q (%s)", final.State, final.Error)
	}
	if final.TraceID != csc.TraceID {
		t.Errorf("final traceId = %q, want %q", final.TraceID, csc.TraceID)
	}
	attempt.End()
	callSpan.End()

	// Hop 2: the request root span continues the client's trace, parented
	// to the attempt span that carried the header. The middleware records
	// it just after the response is written, so poll briefly.
	var roots []*trace.Span
	var reqRoot *trace.Span
	deadline := time.Now().Add(5 * time.Second)
	for reqRoot == nil && time.Now().Before(deadline) {
		roots = s.Tracer().Snapshot()
		if reqRoot = findRoot(roots, "request /v1/jobs", csc.TraceID); reqRoot == nil {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if reqRoot == nil {
		t.Fatalf("no request root with trace ID %s; roots = %d", csc.TraceID, len(roots))
	}
	if reqRoot.ParentSpanID() != attempt.SpanID() {
		t.Errorf("request root parent = %q, want client attempt span %q",
			reqRoot.ParentSpanID(), attempt.SpanID())
	}
	if got := reqRoot.Attr("requestID"); got == nil || got == "" {
		t.Error("request root span has no requestID attr")
	}

	// Hop 3: the worker-side "job solve" root crossed the queue boundary —
	// same trace ID, parented to the request span that enqueued it, with
	// the queue wait and the solver's iteration spans underneath.
	jobRoot := findRoot(roots, "job solve", csc.TraceID)
	if jobRoot == nil {
		t.Fatalf("no job solve root with trace ID %s", csc.TraceID)
	}
	if jobRoot.ParentSpanID() != reqRoot.SpanID() {
		t.Errorf("job root parent = %q, want request span %q", jobRoot.ParentSpanID(), reqRoot.SpanID())
	}
	if got := jobRoot.Attr("jobID"); got != submitted.ID {
		t.Errorf("job root jobID attr = %v, want %q", got, submitted.ID)
	}
	names := make(map[string]int)
	var walk func(*trace.Span)
	walk = func(sp *trace.Span) {
		names[sp.Name()]++
		if sp.TraceID() != csc.TraceID {
			t.Errorf("span %q trace ID %q, want %q", sp.Name(), sp.TraceID(), csc.TraceID)
		}
		if sp != jobRoot && sp.ParentSpanID() == "" {
			t.Errorf("span %q has no parent link", sp.Name())
		}
		for _, c := range sp.Children() {
			walk(c)
		}
	}
	walk(jobRoot)
	for _, want := range []string{"queued", "solve", "iteration 1"} {
		if names[want] == 0 {
			t.Errorf("job trace missing span %q; have %v", want, names)
		}
	}

	// /debug/traces?trace=<id> serves exactly this trace's server-side
	// spans, with the span IDs a client needs to stitch its own half on.
	resp, data = doReq(t, http.MethodGet, ts.URL+"/debug/traces?trace="+csc.TraceID+"&epoch=unix", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status = %d", resp.StatusCode)
	}
	var events []struct {
		Name string         `json:"name"`
		TS   float64        `json:"ts"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("traces dump: %v\n%s", err, data)
	}
	if len(events) == 0 {
		t.Fatal("filtered trace dump is empty")
	}
	sawParent := false
	for _, ev := range events {
		if ev.Args["traceID"] != csc.TraceID {
			t.Errorf("event %q traceID = %v, want %q", ev.Name, ev.Args["traceID"], csc.TraceID)
		}
		if ev.Args["parentSpanId"] == attempt.SpanID() {
			sawParent = true
		}
		// epoch=unix timestamps are absolute: around now, not around zero.
		if ev.TS < float64(time.Now().Add(-time.Hour).UnixMicro()) {
			t.Errorf("event %q ts = %v, want absolute unix micros", ev.Name, ev.TS)
		}
	}
	if !sawParent {
		t.Errorf("no event parented to the client attempt span %s", attempt.SpanID())
	}
}

// TestDistributedTraceUnsampled: a traceparent with the sampled bit clear
// is a caller saying "do not record"; the request must not land in the
// flight recorder.
func TestDistributedTraceUnsampled(t *testing.T) {
	s, ts := newServingServer(t, Config{})
	tp := "00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 8) + "-00"
	doReq(t, http.MethodPost, ts.URL+"/v1/pipeline?k=2",
		http.Header{trace.TraceparentHeader: []string{tp}}, []byte(tinyClickstream))
	if got := len(s.Tracer().Snapshot()); got != 0 {
		t.Errorf("unsampled traceparent recorded %d traces, want 0", got)
	}
}

// TestTracesQuerySurface covers the /debug/traces operator knobs added
// alongside propagation: ?limit, Accept negotiation, and 405 + Allow.
func TestTracesQuerySurface(t *testing.T) {
	s, ts := newServingServer(t, Config{})
	s.EnableTracing(1, 8)
	for i := 0; i < 3; i++ {
		doReq(t, http.MethodPost, ts.URL+"/v1/pipeline?k=2", nil, []byte(tinyClickstream))
	}
	if got := len(s.Tracer().Snapshot()); got != 3 {
		t.Fatalf("recorded %d traces, want 3", got)
	}

	// ?limit keeps the newest N.
	resp, data := doReq(t, http.MethodGet, ts.URL+"/debug/traces?limit=1", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit=1 status = %d", resp.StatusCode)
	}
	var events []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	rootCount := 0
	for _, ev := range events {
		if ev.Name == "request /v1/pipeline" {
			rootCount++
		}
	}
	if rootCount != 1 {
		t.Errorf("limit=1 returned %d request roots, want 1", rootCount)
	}
	if resp, data := doReq(t, http.MethodGet, ts.URL+"/debug/traces?limit=-1", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=-1 status = %d: %s", resp.StatusCode, data)
	}

	// Accept negotiation: text/plain gets the tree, application/json (and
	// no Accept) the Chrome events, anything else 406.
	resp, data = doReq(t, http.MethodGet, ts.URL+"/debug/traces",
		http.Header{"Accept": []string{"text/plain"}}, nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Accept text/plain content type = %q", ct)
	}
	if !strings.Contains(string(data), "request /v1/pipeline") {
		t.Errorf("tree output missing request root:\n%s", data)
	}
	resp, data = doReq(t, http.MethodGet, ts.URL+"/debug/traces",
		http.Header{"Accept": []string{"application/json"}}, nil)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Accept application/json content type = %q", ct)
	}
	if err := json.Unmarshal(data, &[]map[string]any{}); err != nil {
		t.Errorf("json output: %v", err)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/debug/traces",
		http.Header{"Accept": []string{"image/png"}}, nil); resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("Accept image/png status = %d, want 406", resp.StatusCode)
	}

	// Unsupported methods answer 405 with the Allow header, like /v1/*.
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/debug/traces", nil, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status = %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != "GET" {
		t.Errorf("Allow = %q, want GET", got)
	}
}

// TestStatuszPage exercises the operator dashboard end to end: after some
// traffic it must render 200 HTML carrying the build identity, the RED
// table with the hit endpoints, the serving occupancy and the
// slowest-trace list with /debug/traces links.
func TestStatuszPage(t *testing.T) {
	s, ts := newServingServer(t, Config{})
	s.EnableTracing(1, 8)
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, servingGraph(t, 60)))
	doReq(t, http.MethodPost, ts.URL+"/v1/pipeline?k=2", nil, []byte(tinyClickstream))

	resp, data := doReq(t, http.MethodGet, ts.URL+"/debug/statusz", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	page := string(data)
	for _, want := range []string{
		"<h1>prefcoverd</h1>",
		"uptime",
		"prefcover_runtime_goroutines",
		"/v1/pipeline",
		"/v1/graphs/{name}",
		"prefcover_store_graphs",
		"prefcover_jobs_queue_depth",
		"Slowest traces",
		"Slowest traces (last 8 recorded, worst 10)", // the ring EnableTracing built
		`href="/debug/traces?trace=`,
		"<p>none</p>", // no fault injector armed
	} {
		if !strings.Contains(page, want) {
			t.Errorf("statusz missing %q", want)
		}
	}
	// The RED row for the pipeline hit carries real quantiles, not the
	// empty-histogram dash.
	for _, line := range strings.Split(page, "\n") {
		if strings.Contains(line, "/v1/pipeline") && strings.Contains(line, "<td>-</td>") {
			t.Errorf("pipeline RED row has empty quantiles: %s", line)
		}
	}
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/debug/statusz", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST statusz status = %d, want 405", resp.StatusCode)
	}
}
