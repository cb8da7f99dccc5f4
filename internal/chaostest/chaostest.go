// Package chaostest is the shared toolkit for the serving stack's chaos
// suite (internal/server's chaos test): a retrying HTTP client whose
// observations are counted through internal/retry's metrics, response
// validation that holds every error to the JSON-envelope contract, and a
// goroutine-leak check. The suite's core claim is quantitative — the
// server-side fault injector's counts must exactly equal the client-side
// transient observations (retries + give-ups) — so the client here retries
// *every* call: an unretried request that swallows an injected fault would
// break the accounting identity. The client also tallies every attempt's
// HTTP status, so the suite can match injected 429s and 503s kind by kind.
// The goroutine-leak check is shared with the cluster chaos suite and the
// profiler's tests.
package chaostest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"prefcover/internal/metrics"
	"prefcover/internal/retry"
)

// Result is one completed HTTP exchange (possibly after retries).
type Result struct {
	Status int
	Header http.Header
	Body   []byte
}

// Client is the chaos workload's HTTP client: seeded retry jitter, counted
// observations, per-response envelope validation.
type Client struct {
	// Counters receives every attempt/retry/give-up; the chaos test
	// reconciles them against the injector's fault counts.
	Counters *retry.Counters

	http   *http.Client
	policy retry.Policy

	mu sync.Mutex
	// violations records responses that broke the error-envelope contract.
	violations []string
	// statuses counts attempts by the HTTP status they received.
	statuses map[int]int64
}

// NewClient builds a chaos client. The retry schedule is aggressive and
// fast (millisecond backoff) because the suite injects sub-second
// Retry-After values; seed fixes the jitter stream so a failing run
// replays.
func NewClient(seed int64, reg *metrics.Registry) *Client {
	c := &Client{
		Counters: retry.NewCounters(reg),
		statuses: make(map[int]int64),
		// A private transport, with keep-alives off: on a *reused*
		// connection net/http transparently replays a replayable request
		// whose connection died before any response bytes, which would
		// swallow injected reset faults before the retry layer could count
		// them. Fresh connections are never transparently retried, so every
		// injected fault surfaces as exactly one observation.
		http: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	}
	c.policy = retry.Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Jitter:      0.5,
		Rand:        rand.New(rand.NewSource(seed)),
		Observer:    c.Counters,
	}
	return c
}

// Do issues one API call with retries on every transient failure. The
// returned Result is the final response (which may itself be an HTTP
// error the retry loop gave up on, or a non-transient 4xx); a nil Result
// means every attempt died in transport. Error responses are checked
// against the JSON-envelope contract as a side effect.
func (c *Client) Do(ctx context.Context, method, url, contentType string, body []byte, extra http.Header) (*Result, error) {
	var last *Result
	err := c.policy.Do(ctx, func(ctx context.Context) error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		for k, vs := range extra {
			req.Header[k] = vs
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return retry.TransportError(err)
		}
		c.mu.Lock()
		c.statuses[resp.StatusCode]++
		c.mu.Unlock()
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			// Mid-body death (reset or truncation): no usable response.
			return retry.TransportError(fmt.Errorf("%s %s: reading body: %w", method, url, err))
		}
		last = &Result{Status: resp.StatusCode, Header: resp.Header, Body: data}
		if resp.StatusCode >= 400 {
			c.checkEnvelope(method, url, last)
			err := fmt.Errorf("%s %s: %s", method, url, resp.Status)
			return retry.HTTPStatusError(resp.StatusCode, resp.Header, err)
		}
		return nil
	})
	if err != nil && last != nil {
		// The loop gave up on an HTTP error: the response is still the
		// caller's to inspect — a final 404 or 429 is a legitimate outcome
		// under chaos, not a test failure.
		return last, nil
	}
	return last, err
}

// checkEnvelope enforces the error contract: every >= 400 response must be
// the JSON envelope {"error": "...", "requestId": "..."} with a non-empty
// error and the request ID echoed in the header.
func (c *Client) checkEnvelope(method, url string, r *Result) {
	var envelope struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	switch {
	case json.Unmarshal(r.Body, &envelope) != nil:
		c.violate("%s %s -> %d: body is not JSON: %.120q", method, url, r.Status, r.Body)
	case envelope.Error == "":
		c.violate("%s %s -> %d: envelope has empty error: %.120q", method, url, r.Status, r.Body)
	case r.Header.Get("X-Request-ID") == "":
		c.violate("%s %s -> %d: missing X-Request-ID header", method, url, r.Status)
	}
}

func (c *Client) violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// Violations returns every envelope-contract breach observed so far.
func (c *Client) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

// StatusCount returns how many attempts received the HTTP status code.
func (c *Client) StatusCount(code int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statuses[code]
}

// CloseIdle tears down pooled connections (call before the leak check).
func (c *Client) CloseIdle() {
	if tr, ok := c.http.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// GoroutineBaseline samples the current goroutine count after a settling
// GC, for a later CheckGoroutines.
func GoroutineBaseline() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// CheckGoroutines fails the test if the goroutine count does not return to
// the baseline (within a small scheduler slack) inside the deadline; the
// failure includes a full stack dump so the leaked goroutines are named.
func CheckGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d goroutines, baseline %d (+%d slack)\n%s",
				n, baseline, slack, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
