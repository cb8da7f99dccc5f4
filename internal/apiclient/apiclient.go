// Package apiclient is the one place prefcoverd's HTTP clients are
// constructed: `prefcover remote` and the cluster gateway share its
// transport sizing, identification headers and retry-policy shape.
//
//   - New builds the tuned *http.Client (transport pooling, optional
//     keep-alive kill switch for harnesses that must observe every
//     connection-level fault exactly once).
//   - Decorate stamps the headers every outbound prefcover request
//     carries: an X-Request-ID (one per logical call, constant across its
//     retry attempts, so client and server logs join on a single ID) and
//     the W3C traceparent when the caller has a trace position.
//   - NewPolicy builds the retry discipline with the shared jitter shape.
//   - Ready is the /readyz body a node encodes and the gateway's prober
//     decodes.
package apiclient

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	mrand "math/rand/v2"
	"net/http"
	"time"

	"prefcover/internal/retry"
)

// idleConnsPerHost sizes each backend's keep-alive pool, well above
// net/http's default of two so concurrent requests do not redial.
const idleConnsPerHost = 64

// Options shapes New. The zero value is the `prefcover remote` client:
// pooled keep-alive connections and no client-side timeout (reference
// solves can legitimately run for minutes; the server owns the deadline).
type Options struct {
	// DisableKeepAlives forces a fresh connection per request. Fault
	// harnesses set this when they need injected connection resets to
	// surface as exactly one observation (net/http transparently replays
	// idempotent requests on dead *reused* connections, which would
	// swallow the fault before the retry layer could count it).
	DisableKeepAlives bool
	// Hosts is how many distinct backends this client fans out to (the
	// cluster gateway talks to every node). It scales the transport-wide
	// idle-connection cap so a multi-node fan-out is not silently capped at
	// one host's pool size — without it, replicating to N nodes evicts and
	// redials warm connections on every round. 0 means a single host.
	Hosts int
}

// Ready is the body of a node's /readyz: status "ready" with 200, or
// "unavailable" with 503 once its job queue is full, and the load either
// way.
type Ready struct {
	Status string `json:"status"`
	Load
}

// Load is the work a node reports on /readyz, the inputs of a gateway's
// least-loaded routing: graphs held, queued and running async jobs, and
// occupied solver slots (0 when unlimited). All are cheap snapshots, so a
// probe needs no /metrics scrape.
type Load struct {
	Graphs     int `json:"graphs"`
	QueueDepth int `json:"queueDepth"`
	QueueCap   int `json:"queueCap"`
	Running    int `json:"running"`
	InFlight   int `json:"inFlight"`
}

// New returns the shared tuned client.
func New(opts Options) *http.Client {
	hosts := opts.Hosts
	if hosts <= 0 {
		hosts = 1
	}
	return &http.Client{
		Transport: &http.Transport{
			DisableKeepAlives:   opts.DisableKeepAlives,
			MaxIdleConns:        4 * idleConnsPerHost * hosts,
			MaxIdleConnsPerHost: idleConnsPerHost,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// WithTimeout bounds a single request by attaching a deadline context
// to req. Use it for fan-out calls that need a tight per-request budget
// (gateway health probes, replication writes) on a client whose other
// requests (long reference solves) must stay unbounded. The returned
// cancel must be called once the response body is consumed. d <= 0
// returns req unchanged with a no-op cancel.
func WithTimeout(req *http.Request, d time.Duration) (*http.Request, context.CancelFunc) {
	if d <= 0 {
		return req, func() {}
	}
	ctx, cancel := context.WithTimeout(req.Context(), d)
	return req.WithContext(ctx), cancel
}

// NewRequestID mints a request ID in the same shape the server generates
// (16 hex digits): set it once per logical call and reuse it across retry
// attempts so every server-side log line of every attempt carries it.
func NewRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Uniqueness is all an ID needs; fall back to the fast source.
		for i := range b {
			b[i] = byte(mrand.Uint32())
		}
	}
	return hex.EncodeToString(b[:])
}

// SanitizeRequestID returns id if it is printable ASCII of at most 128
// bytes without quotes or backslashes, else "", so a hostile header
// cannot inject log lines or break a JSON context.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return id
}

// RequestID resolves an inbound X-Request-ID: a usable one passes through
// verbatim so callers can correlate their own IDs, anything else is
// replaced by a NewRequestID.
func RequestID(inbound string) string {
	if id := SanitizeRequestID(inbound); id != "" {
		return id
	}
	return NewRequestID()
}

// NewTraceparent mints a fresh W3C traceparent value (version 00, random
// trace and span IDs). Callers without a trace of their own send one with
// sampled=false: the header exercises the full propagation path without
// flooding the server's flight recorder, which only records sampled
// inbound traces.
func NewTraceparent(sampled bool) string {
	var b [24]byte
	if _, err := crand.Read(b[:]); err != nil {
		for i := range b {
			b[i] = byte(mrand.Uint32())
		}
	}
	// An all-zero trace or span ID is invalid per the spec; force one bit.
	b[0] |= 1
	b[16] |= 1
	flags := "-00"
	if sampled {
		flags = "-01"
	}
	return "00-" + hex.EncodeToString(b[:16]) + "-" + hex.EncodeToString(b[16:]) + flags
}

// Decorate stamps the shared identification headers on one attempt:
// requestID into X-Request-ID (when non-empty) and traceparent (when
// non-empty). Both are set unconditionally — the caller owns reuse
// semantics (same request ID across retries, fresh traceparent per
// attempt or per call as its trace model demands).
func Decorate(req *http.Request, requestID, traceparent string) {
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
}

// NewPolicy is the shared retry-policy shape: maxAttempts total tries,
// base backoff doubling with 50% jitter, Retry-After honored by the
// retry package itself.
func NewPolicy(maxAttempts int, base time.Duration) retry.Policy {
	return retry.Policy{
		MaxAttempts: maxAttempts,
		BaseDelay:   base,
		Jitter:      0.5,
	}
}
