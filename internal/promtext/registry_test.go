package promtext_test

import (
	"bytes"
	"math"
	"testing"

	"prefcover/internal/metrics"
	. "prefcover/internal/promtext"
)

// The registry round trip lives in the external test package because
// metrics imports promtext; famsEqual is the internal tests' helper.
var famsEqual = FamsEqual

// TestParseLiveRegistry round-trips a scrape of a real metrics.Registry
// carrying every family type, labels with escapes, and non-finite values.
func TestParseLiveRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	reqs := reg.NewCounter("prefcover_http_requests_total", "Requests served.", "endpoint", "code")
	reqs.With("/v1/solve", "200").Add(41)
	reqs.With("/v1/solve", "500").Add(3)
	reqs.With(`/v1/graphs/{name}`, "200").Inc()
	g := reg.NewGauge("prefcover_inflight", "In-flight requests.")
	g.With().Set(7)
	fg := reg.NewFloatGauge("prefcover_uptime_seconds", "Uptime.")
	fg.With().Set(12.5)
	weird := reg.NewFloatGauge("prefcover_weird", "Escapes and non-finite values.", "path")
	weird.With("a\\b\"c\nd").Set(math.Inf(1))
	weird.With("plain").Set(math.NaN())
	hist := reg.NewHistogram("prefcover_http_request_duration_seconds", "Latency.", []float64{0.01, 0.1, 1}, "endpoint")
	for _, v := range []float64{0.005, 0.02, 0.05, 0.5, 2} {
		hist.With("/v1/solve").Observe(v)
	}

	var raw bytes.Buffer
	if err := reg.WritePrometheus(&raw); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	m, err := Parse(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatalf("Parse of live registry output: %v\ninput:\n%s", err, raw.String())
	}

	// Spot-check structure against the registry.
	f := m.Family("prefcover_http_requests_total")
	if f == nil || f.Type != "counter" || f.Help != "Requests served." {
		t.Fatalf("counter family missing or wrong: %+v", f)
	}
	if len(f.Samples) != 3 {
		t.Fatalf("counter samples = %d, want 3", len(f.Samples))
	}
	found := false
	for _, s := range m.Samples("prefcover_http_requests_total") {
		if s.Labels.Matches(map[string]string{"endpoint": "/v1/solve", "code": "500"}) {
			found = true
			if s.Value != 3 {
				t.Fatalf("500 counter = %g, want 3", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("500-code counter series not found")
	}
	hf := m.Family("prefcover_http_request_duration_seconds")
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", hf)
	}
	// 3 finite buckets + +Inf + sum + count = 6 samples under one family.
	if len(hf.Samples) != 6 {
		t.Fatalf("histogram samples = %d, want 6", len(hf.Samples))
	}
	var infBucket, count float64
	for _, s := range m.Samples("prefcover_http_request_duration_seconds_bucket") {
		if le, _ := s.Labels.Get("le"); le == "+Inf" {
			infBucket = s.Value
		}
	}
	for _, s := range m.Samples("prefcover_http_request_duration_seconds_count") {
		count = s.Value
	}
	if infBucket != 5 || count != 5 {
		t.Fatalf("histogram +Inf bucket/count = %g/%g, want 5/5", infBucket, count)
	}
	// The escaped label value must come back exactly.
	gotEscaped := false
	for _, s := range m.Samples("prefcover_weird") {
		if v, ok := s.Labels.Get("path"); ok && v == "a\\b\"c\nd" {
			gotEscaped = true
			if !math.IsInf(s.Value, 1) {
				t.Fatalf("escaped series value = %g, want +Inf", s.Value)
			}
		}
	}
	if !gotEscaped {
		t.Fatal("escaped label value did not round-trip")
	}

	// Write renders the canonical form (labels sorted by name; the
	// registry emits declaration order) — a reparse must be structurally
	// identical to the first parse.
	var rendered bytes.Buffer
	if err := Write(&rendered, m); err != nil {
		t.Fatalf("Write: %v", err)
	}
	m2, err := Parse(bytes.NewReader(rendered.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !famsEqual(m.Families, m2.Families) {
		t.Fatal("round-trip changed the parsed structure")
	}
}
