package metrics_test

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	. "prefcover/internal/metrics"
)

// goldenRegistry exercises every exposition rule /metrics depends on:
// labeled and unlabeled families, series created out of label order,
// label values needing escapes and non-ASCII text, integer series at and
// above 1e6 (printed in decimal, never %g's 1e+06 form), float gauges
// including non-finite values, histograms with default and custom
// bounds, and a family with no series.
func goldenRegistry() *Registry {
	r := NewRegistry()
	reqs := r.NewCounter("prefcover_http_requests_total", "HTTP requests served, by endpoint and status code.", "endpoint", "code")
	reqs.With("/v1/solve", "200").Add(3866624)
	reqs.With("/v1/solve", "500").Inc()
	reqs.With("/healthz", "200").Add(7)
	weird := r.NewCounter("prefcover_weird_total", "Label values that need escaping.", "path")
	weird.With("quote\" back\\slash\nnewline").Inc()
	weird.With("café ☕ 日本").Add(2)
	r.NewGauge("prefcover_store_bytes", "Bytes held by the store.").With().Set(1234567)
	r.NewGauge("prefcover_signed", "A gauge that went negative.", "kind").With("down").Set(-42)
	r.NewFloatGauge("prefcover_process_uptime_seconds", "Seconds since start.").With().Set(12.5)
	fg := r.NewFloatGauge("prefcover_float_cases", "Float gauge formatting.", "case")
	fg.With("big").Set(2.5e9)
	fg.With("tiny").Set(1e-7)
	fg.With("inf").Set(math.Inf(1))
	fg.With("nan").Set(math.NaN())
	lat := r.NewHistogram("prefcover_http_request_duration_seconds", "End-to-end request latency.", nil, "endpoint")
	for _, v := range []float64{0.003, 0.02, 0.4, 3, 30} {
		lat.With("/v1/solve").Observe(v)
	}
	lat.With("/v1/pipeline").Observe(0.1)
	nodes := r.NewHistogram("prefcover_graph_nodes", "Graph sizes.", []float64{1000, 1e6, 2.5e7})
	for _, v := range []float64{52739, 2e6, 5e7} {
		nodes.With().Observe(v)
	}
	r.NewCounter("prefcover_never_total", "A family with no series yet.", "endpoint")
	return r
}

// TestWritePrometheusGolden pins the /metrics bytes: testdata/registry.golden
// was captured from the registry's original per-type text renderer, so any
// difference here is a change to what scrapers see.
func TestWritePrometheusGolden(t *testing.T) {
	var got bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/registry.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from the golden:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
