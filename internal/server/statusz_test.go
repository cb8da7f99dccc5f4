package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStatuszREDWindow: with a monitor the RED table covers the fast SLO
// window, here just the requests between the last two snapshots, and its
// header says so; without one it counts everything since boot.
func TestStatuszREDWindow(t *testing.T) {
	healthz := func(t *testing.T, s *Server, ts string, n int) {
		t.Helper()
		want := s.met.requests.With("/healthz", "200").Value() + int64(n)
		for i := 0; i < n; i++ {
			doReq(t, http.MethodGet, ts+"/healthz", nil, nil)
		}
		// The middleware counts a request just after writing its response.
		deadline := time.Now().Add(5 * time.Second)
		for s.met.requests.With("/healthz", "200").Value() < want {
			if time.Now().After(deadline) {
				t.Fatal("healthz requests never counted")
			}
			time.Sleep(time.Millisecond)
		}
	}
	statusz := func(t *testing.T, ts string, wants ...string) {
		t.Helper()
		_, page := doReq(t, http.MethodGet, ts+"/debug/statusz", nil, nil)
		for _, want := range wants {
			if !strings.Contains(string(page), want) {
				t.Errorf("statusz missing %q", want)
			}
		}
	}

	s, ts := newServingServer(t, Config{})
	healthz(t, s, ts.URL, 3)
	healthz(t, s, ts.URL, 2)
	statusz(t, ts.URL, "<h2>Endpoints (RED, since boot)</h2>", "<tr><td>/healthz</td><td>5</td>")

	s, ts = newServingServer(t, Config{SLO: SLOConfig{ScrapeInterval: time.Hour, FastWindow: time.Nanosecond}})
	deadline := time.Now().Add(5 * time.Second)
	for s.Monitor().Status().Ticks == 0 { // the loop's immediate first tick
		if time.Now().After(deadline) {
			t.Fatal("monitor never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	healthz(t, s, ts.URL, 3)
	s.Monitor().Tick()
	healthz(t, s, ts.URL, 2)
	s.Monitor().Tick()
	statusz(t, ts.URL, "<h2>Endpoints (RED, fast SLO window, 1ns)</h2>", "<tr><td>/healthz</td><td>2</td>")
}

// TestStatuszConcurrentTicks renders statusz from several goroutines while
// the monitor ticks and evaluates, so windowed reads share ring snapshots
// (and their lazily built sample index) with the evaluator. Run it under
// -race.
func TestStatuszConcurrentTicks(t *testing.T) {
	s, ts := newServingServer(t, Config{SLO: SLOConfig{
		Spec:           sloSpec(t, "avail:/v1/solve:99.9,p99:/v1/solve:0.05"),
		ScrapeInterval: time.Millisecond,
	}})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{}"))
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				resp, err = http.Get(ts.URL + "/debug/statusz")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("statusz status = %d", resp.StatusCode)
					return
				}
				s.Monitor().Tick()
			}
		}()
	}
	wg.Wait()
}
