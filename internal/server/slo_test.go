package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"prefcover/internal/faults"
	"prefcover/internal/slo"
)

// testLogger keeps transition logs out of the test output.
func testLogger(t *testing.T) *slog.Logger {
	t.Helper()
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// sloSpec parses or fails the test.
func sloSpec(t *testing.T, text string) slo.Spec {
	t.Helper()
	s, err := slo.ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerSLOEndToEnd drives real HTTP traffic with injected faults
// through a server whose monitor is ticked manually, and watches the
// alert reach firing on /metrics and /debug/slo.
func TestServerSLOEndToEnd(t *testing.T) {
	s, err := NewWithConfig(Config{
		Logger: testLogger(t),
		SLO: slo.Config{
			Spec:           sloSpec(t, "avail:/v1/solve:99"),
			ScrapeInterval: time.Hour, // the loop's first immediate tick, then manual Ticks
			FastWindow:     100 * time.Millisecond,
			SlowWindow:     200 * time.Millisecond,
			ForDuration:    time.Nanosecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Monitor() == nil {
		t.Fatal("monitor should be constructed")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// All /v1/solve requests fail: injected 500s via the fault layer.
	inj, err := faults.ParseSpec("seed=1,error=1.0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(faults.New(inj))

	drive := func(n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	}

	// Ticks bracket the error traffic so the windows see real increases;
	// wall sleeps keep elapsed > 0 between snapshots.
	state := func() slo.State {
		st := s.Monitor().Status()
		if len(st.Alerts) != 1 {
			t.Fatalf("alerts = %+v", st.Alerts)
		}
		return st.Alerts[0].State
	}
	deadline := time.Now().Add(10 * time.Second)
	for state() != slo.StateFiring {
		if time.Now().After(deadline) {
			t.Fatalf("alert never fired; status %+v", s.Monitor().Status())
		}
		drive(20)
		time.Sleep(5 * time.Millisecond)
		s.Monitor().Tick()
	}

	// The ALERTS series must be visible on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	want := `ALERTS{alertname="avail_burn",endpoint="/v1/solve",severity="critical",state="firing"} 1`
	if !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %q:\n%s", want, firstLines(string(body), 20))
	}

	// /debug/slo reports the same state in both representations.
	req, _ := http.NewRequest("GET", ts.URL+"/debug/slo", nil)
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st slo.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if !st.Enabled || len(st.Alerts) != 1 || st.Alerts[0].State != slo.StateFiring {
		t.Fatalf("/debug/slo JSON = %+v", st)
	}
	resp, err = http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(page), "firing") {
		t.Fatalf("/debug/slo HTML missing firing state:\n%s", firstLines(string(page), 30))
	}

	// Disarm the faults and drive clean traffic: the alert must resolve.
	s.SetFaults(nil)
	deadline = time.Now().Add(10 * time.Second)
	for state() != slo.StateResolved {
		if time.Now().After(deadline) {
			t.Fatalf("alert never resolved; status %+v", s.Monitor().Status())
		}
		drive(40)
		time.Sleep(5 * time.Millisecond)
		s.Monitor().Tick()
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body), `state="resolved"} 1`) {
		t.Fatal("/metrics missing resolved series after recovery")
	}
	if !strings.Contains(string(body), `state="firing"} 0`) {
		t.Fatal("/metrics should show an explicit 0 on the firing series after recovery")
	}
}

// TestServerSLODisabled checks the off state: no monitor, no background
// loop, /debug/slo explains itself.
func TestServerSLODisabled(t *testing.T) {
	s := New(Limits{}, testLogger(t))
	defer s.Close()
	if s.Monitor() != nil {
		t.Fatal("monitor should be nil without Config.SLO")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "disabled") {
		t.Fatalf("disabled /debug/slo: %d %q", resp.StatusCode, firstLines(string(body), 5))
	}
}

// TestSLOConcurrentScrapeEvaluateRender hammers the monitor from every
// side at once — the self-scrape loop, traffic mutating the registry,
// /metrics renders, /debug/slo renders — under the race detector.
func TestSLOConcurrentScrapeEvaluateRender(t *testing.T) {
	s, err := NewWithConfig(Config{
		Logger: testLogger(t),
		SLO: slo.Config{
			Spec:           sloSpec(t, "avail:/v1/solve:99.9,p99:/v1/solve:0.05"),
			ScrapeInterval: time.Millisecond,
			FastWindow:     50 * time.Millisecond,
			SlowWindow:     100 * time.Millisecond,
			ForDuration:    5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	get := func(path, accept string) {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return // server may be shutting down
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
					strings.NewReader(fmt.Sprintf(`{"bad": %d}`, i)))
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
				}
			}
		}(i)
	}
	for _, path := range []string{"/metrics", "/debug/slo"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get(path, "")
				get(path, "application/json")
			}
		}(path)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Monitor().Tick() // external ticks race the internal loop on purpose
			s.Monitor().Status()
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	ts.Close()
	s.Close()
}

// firstLines truncates noisy bodies in failure messages.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
