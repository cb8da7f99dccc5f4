package server

// Tests for the PR-2 observability layer: request-ID propagation through
// header, access log and error body; the /version endpoint; runtime
// telemetry on /metrics; and the always-on trace flight recorder.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// syncBuffer lets the handler goroutines and the test body share a log
// sink without racing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDPropagation follows one client-supplied X-Request-ID
// through the whole observable surface: echoed verbatim in the response
// header, stamped on the access-log line, and quoted in the JSON error
// body of a failing request.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	srv := New(Limits{}, logger)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const reqID = "client-trace-42"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/pipeline?k=2",
		strings.NewReader("this is not json"))
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("response header X-Request-ID = %q, want %q", got, reqID)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, body)
	}
	if e.RequestID != reqID {
		t.Errorf("error body requestId = %q, want %q", e.RequestID, reqID)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "request_id="+reqID) {
		t.Errorf("access log missing request_id=%s:\n%s", reqID, logs)
	}
	accessLine := ""
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "msg=request") && strings.Contains(line, "path=/v1/pipeline") {
			accessLine = line
		}
	}
	if accessLine == "" {
		t.Fatalf("no access-log line for /v1/pipeline:\n%s", logs)
	}
	for _, want := range []string{"method=POST", "status=400", "bytes=", "duration=", "request_id=" + reqID} {
		if !strings.Contains(accessLine, want) {
			t.Errorf("access line missing %q: %s", want, accessLine)
		}
	}
}

// TestRequestIDGenerated covers the other two branches of
// apiclient.RequestID: no inbound ID at all, and a hostile one that must
// be discarded.
func TestRequestIDGenerated(t *testing.T) {
	srv := New(Limits{}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := doPipeline(t, ts.URL)
	gen := resp.Header.Get("X-Request-ID")
	if len(gen) != 16 {
		t.Errorf("generated ID %q, want 16 hex chars", gen)
	}

	hostile := `evil" request_id=spoofed \`
	req, _ := http.NewRequest("POST", ts.URL+"/v1/pipeline?k=2",
		strings.NewReader(tinyClickstream))
	req.Header.Set("X-Request-ID", hostile)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got == hostile || strings.Contains(got, "\"") || len(got) != 16 {
		t.Errorf("hostile inbound ID not replaced: %q", got)
	}
}

func TestVersionEndpoint(t *testing.T) {
	srv := New(Limits{}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var info struct {
		Module    string `json:"module"`
		Version   string `json:"version"`
		GoVersion string `json:"goVersion"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, body)
	}
	if info.Module == "" || info.GoVersion == "" {
		t.Errorf("incomplete version info: %s", body)
	}
	// /version is instrumented like any API endpoint.
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("/version response has no X-Request-ID")
	}
}

// TestRuntimeMetrics checks the scrape-time runtime telemetry gauges.
func TestRuntimeMetrics(t *testing.T) {
	srv := New(Limits{}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE prefcover_runtime_goroutines gauge",
		"prefcover_runtime_goroutines ",
		"prefcover_runtime_heap_alloc_bytes ",
		"prefcover_runtime_heap_sys_bytes ",
		"prefcover_runtime_gc_cycles_total ",
		"prefcover_runtime_gc_pause_seconds_total ",
		"prefcover_process_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Goroutines and heap are never zero in a live process.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "prefcover_runtime_goroutines ") && strings.HasSuffix(line, " 0") {
			t.Errorf("implausible zero gauge: %s", line)
		}
	}
}

// TestTraceFlightRecorder turns on 1:1 sampling, runs a pipeline request,
// and checks /debug/traces serves a Chrome trace with the request root,
// the phase spans, and one span per greedy iteration.
func TestTraceFlightRecorder(t *testing.T) {
	srv := New(Limits{}, nil)
	srv.EnableTracing(1, 8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const reqID = "trace-me-1"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/pipeline?k=2",
		strings.NewReader(tinyClickstream))
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipeline status %d", resp.StatusCode)
	}

	tresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if ct := tresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var events []struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Args map[string]interface{} `json:"args"`
	}
	if err := json.Unmarshal(traceBody, &events); err != nil {
		t.Fatalf("trace dump is not Chrome JSON: %v\n%s", err, traceBody)
	}
	names := make(map[string]int)
	for _, ev := range events {
		names[ev.Name]++
		if ev.Args["traceID"] != reqID {
			t.Errorf("event %q traceID = %v, want %q", ev.Name, ev.Args["traceID"], reqID)
		}
	}
	for _, want := range []string{"request /v1/pipeline", "parse", "adapt", "solve", "iteration 1", "iteration 2"} {
		if names[want] == 0 {
			t.Errorf("trace missing span %q; have %v", want, names)
		}
	}

	// The human-readable form carries the same tree.
	hresp, err := http.Get(ts.URL + "/debug/traces?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	treeBody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(treeBody), "request /v1/pipeline ["+reqID+"]") ||
		!strings.Contains(string(treeBody), "iteration 1") {
		t.Errorf("tree dump incomplete:\n%s", treeBody)
	}
}

// TestTraceSampling records every 2nd limited request when -trace-sample 2.
func TestTraceSampling(t *testing.T) {
	srv := New(Limits{}, nil)
	srv.EnableTracing(2, 8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		resp, _ := doPipeline(t, ts.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d", i, resp.StatusCode)
		}
	}
	if got := len(srv.Tracer().Snapshot()); got != 2 {
		t.Errorf("recorded %d traces at sample=2 over 4 requests, want 2", got)
	}
}
