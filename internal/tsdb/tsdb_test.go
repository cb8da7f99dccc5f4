package tsdb

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"prefcover/internal/metrics"
	"prefcover/internal/promtext"
)

// fakeClock steps time deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }
func mustParse(t *testing.T, s string) *promtext.Metrics {
	t.Helper()
	m, err := promtext.Parse(strings.NewReader(s))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// scrape snapshots a live registry — what the monitor records.
func scrape(t *testing.T, reg *metrics.Registry) *promtext.Metrics {
	t.Helper()
	return reg.Snapshot()
}

// increaseSum sums Increases over all matching series.
func increaseSum(db *DB, name string, match map[string]string, window time.Duration) (sum float64, elapsed time.Duration, ok bool) {
	deltas, elapsed, ok := db.Increases(name, match, window)
	for _, d := range deltas {
		sum += d.Increase
	}
	return sum, elapsed, ok
}

// quantile is Quantile over the window's bucket increases.
func quantile(db *DB, name string, match map[string]string, q float64, window time.Duration) (float64, bool) {
	buckets, _, _ := db.Increases(name+"_bucket", match, window)
	return Quantile(q, buckets)
}

func TestRateOverWindow(t *testing.T) {
	clk := newFakeClock()
	db := New(Options{Capacity: 64, Now: clk.Now})
	reg := metrics.NewRegistry()
	reqs := reg.NewCounter("prefcover_http_requests_total", "h", "endpoint", "code")

	// 10 req/s on /v1/solve for 30 seconds, snapshot every 5s.
	for i := 0; i <= 6; i++ {
		db.Append(scrape(t, reg))
		reqs.With("/v1/solve", "200").Add(50)
		clk.Advance(5 * time.Second)
	}
	rate, ok := db.RateSum("prefcover_http_requests_total", map[string]string{"endpoint": "/v1/solve"}, 30*time.Second)
	if !ok {
		t.Fatal("RateSum not ok")
	}
	if math.Abs(rate-10) > 1e-9 {
		t.Fatalf("rate = %g, want 10", rate)
	}
	// A narrower window uses a nearer baseline but the same steady rate.
	rate, ok = db.RateSum("prefcover_http_requests_total", nil, 10*time.Second)
	if !ok || math.Abs(rate-10) > 1e-9 {
		t.Fatalf("10s-window rate = %g (ok=%v), want 10", rate, ok)
	}
}

func TestIncreaseCounterResetAndNewSeries(t *testing.T) {
	clk := newFakeClock()
	db := New(Options{Now: clk.Now})
	db.AppendAt(clk.Now(), mustParse(t, "c{e=\"a\"} 100\n"))
	clk.Advance(time.Minute)
	// Series a reset (process restart) to 5; series b is brand new at 7.
	db.AppendAt(clk.Now(), mustParse(t, "c{e=\"a\"} 5\nc{e=\"b\"} 7\n"))
	sum, elapsed, ok := increaseSum(db, "c", nil, time.Hour)
	if !ok {
		t.Fatal("not ok")
	}
	if sum != 12 { // 5 (post-reset lower bound) + 7 (new series)
		t.Fatalf("reset-corrected increase = %g, want 12", sum)
	}
	if elapsed != time.Minute {
		t.Fatalf("elapsed = %v, want 1m", elapsed)
	}
}

func TestWindowBaselineSelection(t *testing.T) {
	clk := newFakeClock()
	db := New(Options{Now: clk.Now})
	for i := 0; i < 5; i++ {
		db.AppendAt(clk.Now(), mustParse(t, fmt.Sprintf("c %d\n", i*10)))
		clk.Advance(time.Minute)
	}
	// Newest is at t+4m value 40. A 2m window should anchor at t+2m (20).
	sum, elapsed, ok := increaseSum(db, "c", nil, 2*time.Minute)
	if !ok || sum != 20 || elapsed != 2*time.Minute {
		t.Fatalf("2m window: sum=%g elapsed=%v ok=%v, want 20/2m", sum, elapsed, ok)
	}
	// A window longer than history clamps to the oldest snapshot.
	sum, elapsed, ok = increaseSum(db, "c", nil, time.Hour)
	if !ok || sum != 40 || elapsed != 4*time.Minute {
		t.Fatalf("1h window: sum=%g elapsed=%v ok=%v, want 40/4m", sum, elapsed, ok)
	}
}

func TestRingEviction(t *testing.T) {
	clk := newFakeClock()
	db := New(Options{Capacity: 4, Now: clk.Now})
	for i := 0; i < 10; i++ {
		db.AppendAt(clk.Now(), mustParse(t, fmt.Sprintf("c %d\n", i)))
		clk.Advance(time.Second)
	}
	if db.Len() != 4 {
		t.Fatalf("Len = %d, want 4", db.Len())
	}
	_, _, span, ok := db.Window(time.Hour)
	if !ok || span != 3*time.Second {
		t.Fatalf("span = %v, want 3s", span)
	}
	// Only snapshots 6..9 remain: max increase is 9-6=3.
	sum, _, ok := increaseSum(db, "c", nil, time.Hour)
	if !ok || sum != 3 {
		t.Fatalf("post-eviction increase = %g, want 3", sum)
	}
}

func TestOutOfOrderAppendDropped(t *testing.T) {
	clk := newFakeClock()
	db := New(Options{Now: clk.Now})
	db.AppendAt(clk.Now(), mustParse(t, "c 1\n"))
	db.AppendAt(clk.Now().Add(-time.Minute), mustParse(t, "c 99\n"))
	if db.Len() != 1 {
		t.Fatalf("out-of-order append retained; Len = %d", db.Len())
	}
}

func TestHistogramDeltaQuantile(t *testing.T) {
	clk := newFakeClock()
	db := New(Options{Now: clk.Now})
	reg := metrics.NewRegistry()
	h := reg.NewHistogram("lat", "h", []float64{0.1, 0.2, 0.4}, "endpoint")

	// Baseline: 100 fast old observations that must NOT pollute the window.
	for i := 0; i < 100; i++ {
		h.With("/v1/solve").Observe(0.05)
	}
	db.Append(scrape(t, reg))
	clk.Advance(time.Minute)
	// Window contents: 10 observations in (0.1, 0.2], 10 in (0.2, 0.4].
	for i := 0; i < 10; i++ {
		h.With("/v1/solve").Observe(0.15)
		h.With("/v1/solve").Observe(0.3)
	}
	db.Append(scrape(t, reg))

	q, ok := quantile(db, "lat", map[string]string{"endpoint": "/v1/solve"}, 0.5, time.Hour)
	if !ok {
		t.Fatal("Quantile not ok")
	}
	// Median of the delta: rank 10 of 20 lands exactly at the top of the
	// 0.1..0.2 bucket.
	if math.Abs(q-0.2) > 1e-9 {
		t.Fatalf("p50 = %g, want 0.2", q)
	}
	q, _ = quantile(db, "lat", map[string]string{"endpoint": "/v1/solve"}, 0.99, time.Hour)
	if q <= 0.2 || q > 0.4 {
		t.Fatalf("p99 = %g, want in (0.2, 0.4]", q)
	}
	// The whole-history quantile (baseline included) is dominated by the
	// fast observations — confirms windowing changes the answer.
	full, _ := Quantile(0.5, Delta(nil, reg.Snapshot(), "lat_bucket", nil))
	if full >= 0.1 {
		t.Fatalf("sanity: cumulative p50 = %g, expected < 0.1", full)
	}
	// Empty window (no increases): not ok.
	clk.Advance(time.Minute)
	db.Append(scrape(t, reg))
	if _, ok := quantile(db, "lat", nil, 0.5, 30*time.Second); ok {
		t.Fatal("quantile over an empty delta should not be ok")
	}
}

func TestQuantileOverflowClamp(t *testing.T) {
	clk := newFakeClock()
	db := New(Options{Now: clk.Now})
	db.AppendAt(clk.Now(), mustParse(t, "# TYPE h histogram\nh_bucket{le=\"0.1\"} 0\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n"))
	clk.Advance(time.Minute)
	// All observations land in the overflow bucket.
	db.AppendAt(clk.Now(), mustParse(t, "# TYPE h histogram\nh_bucket{le=\"0.1\"} 0\nh_bucket{le=\"+Inf\"} 5\nh_sum 10\nh_count 5\n"))
	q, ok := quantile(db, "h", nil, 0.5, time.Hour)
	if !ok || q != 0.1 {
		t.Fatalf("overflow clamp = %g (ok=%v), want 0.1", q, ok)
	}
}

func TestPointsAndRatePoints(t *testing.T) {
	clk := newFakeClock()
	db := New(Options{Now: clk.Now})
	for i, v := range []int{0, 10, 30, 25} { // 25 < 30: counter reset
		db.AppendAt(clk.Now(), mustParse(t, fmt.Sprintf("c %d\n", v)))
		clk.Advance(10 * time.Second)
		_ = i
	}
	pts := db.Points("c", nil, time.Hour)
	if len(pts) != 4 || pts[0].Value != 0 || pts[3].Value != 25 {
		t.Fatalf("Points = %+v", pts)
	}
	rates := db.RatePoints("c", nil, time.Hour)
	if len(rates) != 3 {
		t.Fatalf("RatePoints = %+v", rates)
	}
	if rates[0].Value != 1 || rates[1].Value != 2 || rates[2].Value != 2.5 {
		t.Fatalf("RatePoints values = %g,%g,%g, want 1,2,2.5 (reset-corrected)", rates[0].Value, rates[1].Value, rates[2].Value)
	}
}

func TestSpark(t *testing.T) {
	if s := Spark(nil); s != "" {
		t.Fatalf("empty spark = %q", s)
	}
	s := Spark([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if len([]rune(s)) != 8 {
		t.Fatalf("spark rune count = %d", len([]rune(s)))
	}
	if []rune(s)[0] != '▁' || []rune(s)[7] != '█' {
		t.Fatalf("spark = %q, want ▁..█ ramp", s)
	}
	if flat := Spark([]float64{5, 5, 5}); flat != "▁▁▁" {
		t.Fatalf("flat spark = %q", flat)
	}
}

func TestNotEnoughHistory(t *testing.T) {
	clk := newFakeClock()
	db := New(Options{Now: clk.Now})
	if _, _, ok := increaseSum(db, "c", nil, time.Minute); ok {
		t.Fatal("empty db should not answer")
	}
	db.Append(mustParse(t, "c 5\n"))
	if _, _, ok := increaseSum(db, "c", nil, time.Minute); ok {
		t.Fatal("single snapshot cannot produce a delta")
	}
}
