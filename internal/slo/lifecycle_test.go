package slo

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"prefcover/internal/metrics"
	"prefcover/internal/promtext"
)

// harness drives a monitor deterministically: a fake clock, a live
// registry as the scrape source, and per-tick traffic injection.
type harness struct {
	t        *testing.T
	clock    time.Time
	reg      *metrics.Registry
	reqs     *metrics.CounterVec
	lat      *metrics.HistogramVec
	alertsGV *metrics.GaugeVec
	mon      *Monitor
	trans    []Transition
	mu       sync.Mutex
}

type recordingNotifier struct{ h *harness }

func (n *recordingNotifier) Notify(_ context.Context, t Transition) error {
	n.h.mu.Lock()
	defer n.h.mu.Unlock()
	n.h.trans = append(n.h.trans, t)
	return nil
}

func newHarness(t *testing.T, spec string, fast, slow, forDur time.Duration) *harness {
	h := &harness{t: t, clock: time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)}
	h.reg = metrics.NewRegistry()
	h.reqs = h.reg.NewCounter("prefcover_http_requests_total", "h", "endpoint", "code")
	h.lat = h.reg.NewHistogram("prefcover_http_request_duration_seconds", "h",
		[]float64{0.01, 0.05, 0.1, 0.5}, "endpoint")
	h.alertsGV = h.reg.NewGauge("ALERTS", "h", "alertname", "endpoint", "severity", "state")
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	h.mon = NewMonitor(MonitorOptions{
		Config: Config{Spec: s, FastWindow: fast, SlowWindow: slow, ForDuration: forDur},
		Scrape: func() (*promtext.Metrics, error) {
			var buf bytes.Buffer
			if err := h.reg.WritePrometheus(&buf); err != nil {
				return nil, err
			}
			return promtext.Parse(&buf)
		},
		Alerts:   h.alertsGV,
		Logger:   slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)),
		Notifier: &recordingNotifier{h},
		Now:      func() time.Time { return h.clock },
	})
	t.Cleanup(h.mon.Close)
	return h
}

// tick advances the clock and runs one scrape/evaluate round.
func (h *harness) tick(step time.Duration) {
	h.clock = h.clock.Add(step)
	h.mon.Tick()
	h.mon.notifyWG.Wait() // notifications are async; settle before asserting
}

// traffic records n requests on endpoint with the given code and latency.
func (h *harness) traffic(endpoint, code string, n int, latency float64) {
	h.reqs.With(endpoint, code).Add(int64(n))
	for i := 0; i < n; i++ {
		h.lat.With(endpoint).Observe(latency)
	}
}

// state returns the single alert's state (tests use one-objective specs).
func (h *harness) state() State {
	st := h.mon.Status()
	if len(st.Alerts) != 1 {
		h.t.Fatalf("alerts = %d, want 1", len(st.Alerts))
	}
	return st.Alerts[0].State
}

// gauge reads an ALERTS series value.
func (h *harness) gauge(alertname, endpoint string, sev Severity, st State) int64 {
	return h.alertsGV.With(alertname, endpoint, string(sev), string(st)).Value()
}

// transitions snapshots the notified transitions.
func (h *harness) transitions() []Transition {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Transition(nil), h.trans...)
}

func TestAvailAlertLifecycle(t *testing.T) {
	// Budget 1%: a 50% error ratio burns at 50x — far over critical 14.4.
	h := newHarness(t, "avail:/v1/solve:99", 2*time.Minute, 10*time.Minute, 30*time.Second)

	// 12 minutes of clean traffic builds both windows healthy.
	for i := 0; i < 72; i++ {
		h.traffic("/v1/solve", "200", 100, 0.01)
		h.tick(10 * time.Second)
	}
	if got := h.state(); got != StateInactive {
		t.Fatalf("after clean warmup: state = %s, want inactive", got)
	}
	if h.gauge("avail_burn", "/v1/solve", SeverityCritical, StateFiring) != 0 {
		t.Fatal("firing gauge should be 0 while healthy")
	}

	// Outage: 50% errors. The slow window (10m) is the limiter — it needs
	// its average error ratio over 0.144. Drive until pending appears.
	ticksToPending := 0
	for h.state() == StateInactive {
		h.traffic("/v1/solve", "200", 50, 0.01)
		h.traffic("/v1/solve", "500", 50, 0.01)
		h.tick(10 * time.Second)
		if ticksToPending++; ticksToPending > 200 {
			t.Fatal("never reached pending")
		}
	}
	if got := h.state(); got != StatePending {
		t.Fatalf("state = %s, want pending", got)
	}
	// The breach may grade warning first (burn crosses 6 before 14.4 on
	// the slow window): assert the gauge under whichever severity stuck.
	pendSev := h.mon.Status().Alerts[0].Severity
	if h.gauge("avail_burn", "/v1/solve", pendSev, StatePending) != 1 {
		t.Fatalf("pending gauge (severity %s) should be 1", pendSev)
	}
	// Hysteresis: 30s of continued breach fires the alert. The pending
	// tick itself anchors the timer, so two more 10s ticks stay pending
	// and the third (t+30s) fires.
	for i := 0; i < 2; i++ {
		h.traffic("/v1/solve", "500", 100, 0.01)
		h.tick(10 * time.Second)
		if got := h.state(); got != StatePending {
			t.Fatalf("tick %d: state = %s, want pending (for-duration not yet served)", i, got)
		}
	}
	h.traffic("/v1/solve", "500", 100, 0.01)
	h.tick(10 * time.Second)
	if got := h.state(); got != StateFiring {
		t.Fatalf("state = %s, want firing after for-duration", got)
	}
	fireSev := h.mon.Status().Alerts[0].Severity
	if h.gauge("avail_burn", "/v1/solve", fireSev, StateFiring) != 1 {
		t.Fatalf("firing gauge (severity %s) should be 1", fireSev)
	}
	for _, sev := range []Severity{SeverityWarning, SeverityCritical} {
		if h.gauge("avail_burn", "/v1/solve", sev, StatePending) != 0 {
			t.Fatalf("pending gauge (severity %s) should fall to 0 once firing", sev)
		}
	}

	// Recovery: clean traffic. Both windows must drain below the warning
	// threshold (slow window holds the memory), then 30s of health
	// resolves the alert.
	ticksToResolve := 0
	for h.state() != StateResolved {
		h.traffic("/v1/solve", "200", 100, 0.01)
		h.tick(10 * time.Second)
		if ticksToResolve++; ticksToResolve > 400 {
			t.Fatal("never resolved")
		}
	}
	resSev := h.mon.Status().Alerts[0].Severity
	if h.gauge("avail_burn", "/v1/solve", resSev, StateResolved) != 1 {
		t.Fatalf("resolved gauge (severity %s) should be 1", resSev)
	}
	for _, sev := range []Severity{SeverityWarning, SeverityCritical} {
		if h.gauge("avail_burn", "/v1/solve", sev, StateFiring) != 0 {
			t.Fatalf("firing gauge (severity %s) should fall to 0 once resolved", sev)
		}
	}

	// The notifier saw exactly the two consequential edges, in order.
	trans := h.transitions()
	if len(trans) != 2 {
		t.Fatalf("notified transitions = %d (%+v), want 2", len(trans), trans)
	}
	if trans[0].To != StateFiring || trans[1].To != StateResolved {
		t.Fatalf("transition order wrong: %+v", trans)
	}
	if trans[0].Alert != "avail_burn" || trans[0].Endpoint != "/v1/solve" || trans[0].Severity == SeverityNone {
		t.Fatalf("firing transition fields: %+v", trans[0])
	}
	if trans[0].FastBurn < WarnBurn || trans[0].SlowBurn < WarnBurn {
		t.Fatalf("firing burns should exceed the warning threshold: %+v", trans[0])
	}

	// A fresh breach re-arms from resolved through pending.
	rearm := 0
	for h.state() == StateResolved {
		h.traffic("/v1/solve", "500", 100, 0.01)
		h.tick(10 * time.Second)
		if rearm++; rearm > 200 {
			t.Fatal("never re-armed from resolved")
		}
	}
	if got := h.state(); got != StatePending {
		t.Fatalf("re-breach from resolved: state = %s, want pending", got)
	}
}

func TestPendingFlapNeverFiresOrNotifies(t *testing.T) {
	h := newHarness(t, "avail:/v1/solve:99", time.Minute, 2*time.Minute, time.Minute)
	for i := 0; i < 30; i++ {
		h.traffic("/v1/solve", "200", 100, 0.01)
		h.tick(10 * time.Second)
	}
	// One bad tick: everything errors. Fast and slow windows both see it.
	h.traffic("/v1/solve", "500", 100, 0.01)
	h.tick(10 * time.Second)
	if got := h.state(); got != StatePending {
		t.Fatalf("state = %s, want pending after one bad tick", got)
	}
	// Health returns before the 1m for-duration elapses: back to inactive.
	for i := 0; i < 30; i++ {
		h.traffic("/v1/solve", "200", 400, 0.01)
		h.tick(10 * time.Second)
	}
	if got := h.state(); got != StateInactive {
		t.Fatalf("state = %s, want inactive after flap", got)
	}
	if trans := h.transitions(); len(trans) != 0 {
		t.Fatalf("flap must not notify: %+v", trans)
	}
	for _, sev := range []Severity{SeverityWarning, SeverityCritical} {
		if h.gauge("avail_burn", "/v1/solve", sev, StatePending) != 0 {
			t.Fatalf("pending gauge (severity %s) should reset after flap", sev)
		}
	}
}

func TestLatencyAlertLifecycle(t *testing.T) {
	// p99 target 50ms; observations at 200ms burn at 4x > critical 2x.
	h := newHarness(t, "p99:/v1/solve:0.05", 2*time.Minute, 4*time.Minute, 20*time.Second)
	for i := 0; i < 40; i++ {
		h.traffic("/v1/solve", "200", 50, 0.02)
		h.tick(10 * time.Second)
	}
	if got := h.state(); got != StateInactive {
		t.Fatalf("fast traffic: state = %s, want inactive", got)
	}
	// Latency regression.
	n := 0
	for h.state() != StateFiring {
		h.traffic("/v1/solve", "200", 50, 0.2)
		h.tick(10 * time.Second)
		if n++; n > 100 {
			t.Fatal("latency alert never fired")
		}
	}
	st := h.mon.Status().Alerts[0]
	if st.Severity != SeverityCritical {
		t.Fatalf("severity = %s, want critical at 4x burn", st.Severity)
	}
	if st.Fast.Value < 0.1 || st.Fast.Value > 0.5 {
		t.Fatalf("observed p99 = %g, want ~0.2", st.Fast.Value)
	}
	// Recovery.
	n = 0
	for h.state() != StateResolved {
		h.traffic("/v1/solve", "200", 400, 0.02)
		h.tick(10 * time.Second)
		if n++; n > 100 {
			t.Fatal("latency alert never resolved")
		}
	}
}

func TestNoTrafficNeverAlerts(t *testing.T) {
	h := newHarness(t, "avail:/v1/solve:99.999,p99:/v1/solve:0.001", time.Minute, 2*time.Minute, 10*time.Second)
	for i := 0; i < 30; i++ {
		h.tick(10 * time.Second)
	}
	st := h.mon.Status()
	for _, a := range st.Alerts {
		if a.State != StateInactive {
			t.Fatalf("alert %s = %s on zero traffic, want inactive", a.Objective, a.State)
		}
		if a.Fast.OK || a.Slow.OK {
			t.Fatalf("alert %s windows should be unmeasurable: %+v", a.Objective, a)
		}
	}
}

func TestScrapeErrorIsSurfacedNotFatal(t *testing.T) {
	calls := 0
	m := NewMonitor(MonitorOptions{
		Scrape: func() (*promtext.Metrics, error) {
			calls++
			return nil, fmt.Errorf("scrape boom %d", calls)
		},
		Logger: slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)),
	})
	defer m.Close()
	m.Tick()
	m.Tick()
	st := m.Status()
	if st.Ticks != 2 || !strings.Contains(st.ScrapeError, "scrape boom 2") {
		t.Fatalf("status = %+v", st)
	}
	if st.Snapshots != 0 {
		t.Fatal("failed scrapes must not append snapshots")
	}
}

func TestMonitorStartClose(t *testing.T) {
	var mu sync.Mutex
	n := 0
	m := NewMonitor(MonitorOptions{
		Config: Config{ScrapeInterval: time.Millisecond},
		Scrape: func() (*promtext.Metrics, error) {
			mu.Lock()
			n++
			mu.Unlock()
			return promtext.Parse(strings.NewReader("c 1\n"))
		},
		Logger: slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)),
	})
	m.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := n
		mu.Unlock()
		if got >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	m.Close() // idempotent
	// A monitor that was never started must also close cleanly.
	m2 := NewMonitor(MonitorOptions{
		Scrape: func() (*promtext.Metrics, error) { return nil, nil },
	})
	m2.Close()
}

// TestOverlappingTicksKeepNewestScrape: when a second tick starts while the
// first is still scraping, the ring's newest snapshot must be the second
// scrape. The first scrape blocks until the second tick has returned, or
// for 100 ms when ticks are serialized and the second cannot start.
func TestOverlappingTicksKeepNewestScrape(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	n := 0
	m := NewMonitor(MonitorOptions{
		Scrape: func() (*promtext.Metrics, error) {
			mu.Lock()
			n++
			call := n
			mu.Unlock()
			if call == 1 {
				close(started)
				<-release
			}
			return promtext.Parse(strings.NewReader(fmt.Sprintf("scrape %d\n", call)))
		},
		Logger: slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)),
	})
	defer m.Close()
	first := make(chan struct{})
	go func() { m.Tick(); close(first) }()
	<-started
	second := make(chan struct{})
	go func() { m.Tick(); close(second) }()
	select {
	case <-second:
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-first
	<-second

	_, newest, _, ok := m.DB().Window(time.Hour)
	if !ok {
		t.Fatalf("ring holds %d snapshots, want 2", m.DB().Len())
	}
	if got := newest.Samples("scrape"); len(got) != 1 || got[0].Value != 2 {
		t.Fatalf("newest snapshot = %+v, want the second scrape", got)
	}
}
