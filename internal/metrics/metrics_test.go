package metrics_test

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	. "prefcover/internal/metrics"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Total requests.", "endpoint", "code")
	c.With("/v1/solve", "200").Add(3)
	c.With("/v1/solve", "400").Inc()
	c.With("/healthz", "200").Inc()
	out := scrape(t, r)
	for _, want := range []string{
		"# HELP requests_total Total requests.\n",
		"# TYPE requests_total counter\n",
		`requests_total{endpoint="/v1/solve",code="200"} 3`,
		`requests_total{endpoint="/v1/solve",code="400"} 1`,
		`requests_total{endpoint="/healthz",code="200"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	c.With("/healthz", "200").Add(-5) // negative deltas ignored
	if got := c.With("/healthz", "200").Value(); got != 1 {
		t.Errorf("counter went backwards: %d", got)
	}
}

func TestGaugeAndUnlabeled(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("in_flight", "In-flight requests.")
	g.With().Inc()
	g.With().Inc()
	g.With().Dec()
	out := scrape(t, r)
	if !strings.Contains(out, "in_flight 1\n") {
		t.Errorf("unlabeled gauge rendered wrong:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE in_flight gauge\n") {
		t.Errorf("missing type line:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.1, 1, 10}, "endpoint")
	s := h.With("/v1/solve")
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		s.Observe(v)
	}
	out := scrape(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{endpoint="/v1/solve",le="0.1"} 2`,  // 0.05 and the boundary 0.1
		`latency_seconds_bucket{endpoint="/v1/solve",le="1"} 3`,    // + 0.5
		`latency_seconds_bucket{endpoint="/v1/solve",le="10"} 4`,   // + 5
		`latency_seconds_bucket{endpoint="/v1/solve",le="+Inf"} 5`, // + 100
		`latency_seconds_count{endpoint="/v1/solve"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if s.Sum() != 105.65 {
		t.Errorf("sum = %g, want 105.65", s.Sum())
	}
}

func TestFamiliesSortedAndSeriesStable(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zzz_total", "Z.").With().Inc()
	r.NewCounter("aaa_total", "A.").With().Inc()
	out := scrape(t, r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
	if scrape(t, r) != out {
		t.Error("scrape output not deterministic")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("weird_total", "Weird labels.", "path")
	c.With("a\"b\\c\nd").Inc()
	out := scrape(t, r)
	if !strings.Contains(out, `weird_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("hits_total", "Hits.").With().Inc()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	Handler(r.Snapshot).ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("body missing metric:\n%s", rec.Body.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "First.")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "Second.")
}

// TestConcurrentUpdates exercises the lock-free paths under the race
// detector: concurrent Inc/Observe on shared and fresh series while a
// scraper renders.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "C.", "worker")
	h := r.NewHistogram("conc_seconds", "H.", nil, "worker")
	g := r.NewGauge("conc_gauge", "G.")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%4))
			for i := 0; i < 1000; i++ {
				c.With(label).Inc()
				h.With(label).Observe(float64(i) / 100)
				g.With().Inc()
				g.With().Dec()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
		}
	}()
	wg.Wait()
	<-done
	var total int64
	for _, l := range []string{"a", "b", "c", "d"} {
		total += c.With(l).Value()
	}
	if total != 8000 {
		t.Errorf("lost counter increments: %d", total)
	}
	if g.With().Value() != 0 {
		t.Errorf("gauge should settle at 0, got %d", g.With().Value())
	}
}

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewFloatGauge("uptime_seconds", "Uptime.")
	g.With().Set(1.5)
	g.With().Add(0.25)
	if got := g.With().Value(); got != 1.75 {
		t.Errorf("Value = %v, want 1.75", got)
	}
	out := scrape(t, r)
	if !strings.Contains(out, "# TYPE uptime_seconds gauge\n") {
		t.Errorf("missing type line:\n%s", out)
	}
	if !strings.Contains(out, "uptime_seconds 1.75\n") {
		t.Errorf("float gauge rendered wrong:\n%s", out)
	}
}

func TestFloatGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.NewFloatGauge("acc_seconds", "Accumulated.", "kind")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.With("gc").Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := g.With("gc").Value(); got != 8*1000*0.5 {
		t.Errorf("Value = %v, want %v", got, 8*1000*0.5)
	}
}
