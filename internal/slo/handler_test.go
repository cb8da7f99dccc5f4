package slo

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prefcover/internal/promtext"
)

func newHandlerMonitor(t *testing.T) *Monitor {
	t.Helper()
	spec, err := ParseSpec("avail:/v1/solve:99.9,p99:/v1/solve:0.05")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(MonitorOptions{
		Spec: spec,
		Scrape: func() (*promtext.Metrics, error) {
			return promtext.Parse(strings.NewReader("prefcover_http_requests_total{endpoint=\"/v1/solve\",code=\"200\"} 10\n"))
		},
		Logger: slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)),
		Now:    func() time.Time { return time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC) },
	})
	t.Cleanup(m.Close)
	return m
}

func TestDebugHandlerHTML(t *testing.T) {
	m := newHandlerMonitor(t)
	m.Tick()
	h := m.DebugHandler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("default content type = %q, want text/html", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{"avail:/v1/solve:99.9", "p99:/v1/solve:0.05", "avail_burn", "inactive", "SLO burn-rate monitor"} {
		if !strings.Contains(body, want) {
			t.Fatalf("HTML missing %q:\n%s", want, body)
		}
	}
}

func TestDebugHandlerJSON(t *testing.T) {
	m := newHandlerMonitor(t)
	m.Tick()
	req := httptest.NewRequest("GET", "/debug/slo", nil)
	req.Header.Set("Accept", "application/json")
	rr := httptest.NewRecorder()
	m.DebugHandler().ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if !st.Enabled || len(st.Alerts) != 2 || st.Ticks != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Alerts[0].State != StateInactive {
		t.Fatalf("alert state = %s", st.Alerts[0].State)
	}
}

func TestDebugHandlerMethodsAndAccept(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{
		{"monitor", newHandlerMonitor(t).DebugHandler()},
		{"disabled", DisabledHandler()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			tc.h.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/slo", nil))
			if rr.Code != 405 || rr.Header().Get("Allow") != "GET, HEAD" {
				t.Fatalf("POST: code = %d, Allow = %q", rr.Code, rr.Header().Get("Allow"))
			}
			req := httptest.NewRequest("GET", "/debug/slo", nil)
			req.Header.Set("Accept", "image/png")
			rr = httptest.NewRecorder()
			tc.h.ServeHTTP(rr, req)
			if rr.Code != 406 {
				t.Fatalf("unacceptable Accept: code = %d, want 406", rr.Code)
			}
		})
	}
}

func TestDisabledHandler(t *testing.T) {
	rr := httptest.NewRecorder()
	DisabledHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "disabled") {
		t.Fatalf("code = %d body = %q", rr.Code, rr.Body.String())
	}
	req := httptest.NewRequest("GET", "/debug/slo", nil)
	req.Header.Set("Accept", "application/json")
	rr = httptest.NewRecorder()
	DisabledHandler().ServeHTTP(rr, req)
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil || st.Enabled {
		t.Fatalf("disabled JSON wrong: %v %+v", err, st)
	}
}
