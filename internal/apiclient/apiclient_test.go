package apiclient

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"prefcover/internal/trace"
)

func TestNewRequestIDShape(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		id := NewRequestID()
		if !hex16.MatchString(id) {
			t.Fatalf("request ID %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("request ID %q repeated", id)
		}
		seen[id] = true
	}
}

func TestNewTraceparentParses(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		tp := NewTraceparent(sampled)
		sc, err := trace.ParseTraceparent(tp)
		if err != nil {
			t.Fatalf("NewTraceparent(%v) = %q: %v", sampled, tp, err)
		}
		if sc.Sampled != sampled {
			t.Fatalf("NewTraceparent(%v) parsed with sampled=%v: %q", sampled, sc.Sampled, tp)
		}
		// The parsed context must round-trip — proof the IDs are non-zero
		// and well-formed, not just 55 bytes of plausible hex.
		if sc.Traceparent() != tp {
			t.Fatalf("traceparent did not round-trip: %q -> %q", tp, sc.Traceparent())
		}
	}
}

func TestDecorate(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "http://example/", nil)
	Decorate(req, "abcd", "00-1234-5678-01")
	if got := req.Header.Get("X-Request-ID"); got != "abcd" {
		t.Fatalf("X-Request-ID = %q", got)
	}
	if got := req.Header.Get(trace.TraceparentHeader); got != "00-1234-5678-01" {
		t.Fatalf("traceparent = %q", got)
	}
	// Empty values must not clobber or create headers.
	req2 := httptest.NewRequest(http.MethodGet, "http://example/", nil)
	Decorate(req2, "", "")
	if len(req2.Header.Values("X-Request-ID")) != 0 || len(req2.Header.Values(trace.TraceparentHeader)) != 0 {
		t.Fatalf("empty decoration created headers: %v", req2.Header)
	}
}

func TestNewClientTransport(t *testing.T) {
	c := New(Options{DisableKeepAlives: true})
	if c.Timeout != 0 {
		t.Fatalf("timeout = %v, want none (the server owns the deadline)", c.Timeout)
	}
	tr, ok := c.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T", c.Transport)
	}
	if !tr.DisableKeepAlives || tr.MaxIdleConnsPerHost != 64 {
		t.Fatalf("transport not tuned: %+v", tr)
	}
	// Fan-out sizing: the transport-wide idle cap must scale with the
	// number of backends, or an N-node gateway would thrash one host's
	// worth of pooled connections across all N.
	fan := New(Options{Hosts: 5}).Transport.(*http.Transport)
	if fan.MaxIdleConns != 4*64*5 {
		t.Fatalf("fan-out MaxIdleConns = %d, want %d", fan.MaxIdleConns, 4*64*5)
	}
}

func TestWithTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	c := New(Options{})
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req, cancel := WithTimeout(req, 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Do(req); err == nil {
		t.Fatal("request against a stalled handler should time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, per-request deadline not applied", elapsed)
	}

	// d <= 0 must be a no-op returning the same request.
	plain, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	same, noop := WithTimeout(plain, 0)
	noop()
	if same != plain {
		t.Fatal("WithTimeout(req, 0) should return req unchanged")
	}
}

func TestNewPolicyShape(t *testing.T) {
	p := NewPolicy(4, 10*time.Millisecond)
	if p.MaxAttempts != 4 || p.BaseDelay != 10*time.Millisecond || p.Jitter != 0.5 || p.Observer != nil {
		t.Fatalf("policy shape drifted: %+v", p)
	}
}
