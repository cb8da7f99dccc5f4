package main

// The remote subcommand is the thin client for a running prefcoverd: push
// a graph into the server's registry, solve it by reference through the
// server's prefix-aware cache, or run the solve as an async job and poll
// it to completion. Everything speaks the /v1/graphs, /v1/solve and
// /v1/jobs JSON API; the heavy lifting stays server-side, so the same
// graph uploaded once serves any number of budget queries with zero
// re-parsing and (warm cache) zero solver work.
//
// Transient failures — connection errors, 429/503 load shedding (the
// server prefers rejecting to queueing), 5xx — are retried with jittered
// exponential backoff on every idempotent call: pushes (PUT is a full
// replace), reference solves and job polling (reads), and job submission,
// which carries a generated Idempotency-Key so a resent POST lands on the
// already-enqueued job instead of creating a second one. Cancellation is
// deliberately not retried: a lost DELETE response is indistinguishable
// from a successful one, and re-sending would just 404.
//
//	prefcover remote push  -server URL -name yc [-in graph.json] [-format json]
//	prefcover remote solve -server URL -graph yc -variant i -k 100
//	prefcover remote job   -server URL -graph yc -variant i -k 100 [-wait]
//	prefcover remote job   -server URL -status ID | -cancel ID

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"prefcover/internal/apiclient"
	"prefcover/internal/jobs"
	"prefcover/internal/retry"
	"prefcover/internal/trace"
)

func runRemote(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: prefcover remote push|solve|job [flags] (see prefcover remote <verb> -h)")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "push":
		return runRemotePush(ctx, rest)
	case "solve":
		return runRemoteSolve(ctx, rest)
	case "job":
		return runRemoteJob(ctx, rest)
	default:
		return fmt.Errorf("unknown remote verb %q (want push, solve or job)", verb)
	}
}

// retryFlags registers the shared retry knobs on fs and returns the
// resulting policy builder (flag values are only valid after Parse). The
// policy shape itself comes from internal/apiclient's NewPolicy.
func retryFlags(fs *flag.FlagSet) func() retry.Policy {
	retries := fs.Int("retries", retry.DefaultMaxAttempts-1,
		"how many times to retry transient failures (connection errors, 429/503/5xx) on idempotent calls; 0 disables")
	base := fs.Duration("retry-base", retry.DefaultBaseDelay,
		"initial backoff before the first retry (doubles each retry, jittered, Retry-After honored)")
	return func() retry.Policy {
		return apiclient.NewPolicy(*retries+1, *base)
	}
}

// remoteClient issues API requests with the configured retry discipline.
// With tr set, every call records a span tree — one "call" span per do(),
// one child per attempt — and injects a W3C traceparent header on each
// attempt so server-side spans join the same trace.
type remoteClient struct {
	policy retry.Policy
	tr     *clientTrace
	// httpc is the shared tuned client from internal/apiclient; nil falls
	// back to a default-constructed one on first use.
	httpc *http.Client
}

// newRemoteClient builds the client every remote verb uses: the shared
// apiclient transport plus the parsed retry policy.
func newRemoteClient(policy retry.Policy) *remoteClient {
	return &remoteClient{policy: policy, httpc: apiclient.New(apiclient.Options{})}
}

// do issues one API call and decodes the JSON reply (or surfaces the
// server's JSON error envelope). body is buffered so every retry attempt
// re-sends identical bytes; extra headers (e.g. Idempotency-Key) ride on
// every attempt. Only calls marked idempotent are retried.
func (c *remoteClient) do(ctx context.Context, method, url, contentType string, body []byte, extra http.Header, idempotent bool, out any) error {
	call := c.tr.startCall(method, url)
	if c.httpc == nil {
		c.httpc = apiclient.New(apiclient.Options{})
	}
	// One request ID per logical call, constant across its attempts, so
	// every server-side log line of every retry joins on a single ID.
	reqID := apiclient.NewRequestID()
	policy := c.policy
	var backoff *backoffObserver
	if call != nil {
		// Observe retry decisions so each attempt span can report the
		// backoff that preceded it.
		backoff = &backoffObserver{}
		policy.Observer = backoff
	}
	attempt := 0
	op := func(ctx context.Context) error {
		attempt++
		var asp *trace.Span
		if call != nil {
			asp = call.Child(fmt.Sprintf("attempt %d", attempt))
			asp.SetAttr("attempt", attempt)
			if attempt > 1 && backoff != nil {
				asp.SetAttr("backoffSeconds", backoff.lastDelay.Seconds())
			}
			defer asp.End()
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err // malformed request: retrying cannot help
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		for k, vs := range extra {
			req.Header[k] = vs
		}
		// The attempt span is the server's parent, so each retry shows up
		// as its own server-side request under the attempt that caused it.
		// Without a client trace, a fresh unsampled traceparent still rides
		// on the attempt so the propagation path is always exercised.
		tp := asp.Context().Traceparent()
		if tp == "" {
			tp = apiclient.NewTraceparent(false)
		}
		apiclient.Decorate(req, reqID, tp)
		resp, err := c.httpc.Do(req)
		if err != nil {
			asp.SetAttr("error", err.Error())
			if idempotent {
				return retry.TransportError(err)
			}
			return err
		}
		defer resp.Body.Close()
		asp.SetAttr("status", resp.StatusCode)
		data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		if err != nil {
			// The response died mid-body (reset, truncation); for an
			// idempotent call a clean re-read is always safe.
			err = fmt.Errorf("%s %s: reading response: %w", method, url, err)
			asp.SetAttr("error", err.Error())
			if idempotent {
				return retry.TransportError(err)
			}
			return err
		}
		if resp.StatusCode >= 400 {
			err := responseError(method, url, resp, data)
			if idempotent {
				return retry.HTTPStatusError(resp.StatusCode, resp.Header, err)
			}
			return err
		}
		if out == nil || len(bytes.TrimSpace(data)) == 0 {
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, url, err)
		}
		return nil
	}
	err := policy.Do(ctx, op)
	if call != nil {
		call.SetAttr("attempts", attempt)
		if err != nil {
			call.SetAttr("error", err.Error())
		}
		call.End()
	}
	return err
}

// backoffObserver captures the delay the retry loop chose before each
// re-attempt.
type backoffObserver struct {
	lastDelay time.Duration
}

func (o *backoffObserver) Attempt() {}

func (o *backoffObserver) Retry(delay time.Duration, honored bool, err error) {
	o.lastDelay = delay
}

func (o *backoffObserver) GiveUp(err error) {}

// responseError renders an error response for the terminal: the server's
// JSON error body when it has one (with its request ID, so the exact
// server-side log lines are quotable), falling back to the X-Request-ID
// header and a body snippet when the body is not the JSON envelope.
func responseError(method, url string, resp *http.Response, data []byte) error {
	reqID := resp.Header.Get("X-Request-ID")
	var apiErr struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
		if apiErr.RequestID != "" {
			reqID = apiErr.RequestID
		}
		if reqID != "" {
			return fmt.Errorf("%s %s: %s (%s, request %s)", method, url, apiErr.Error, resp.Status, reqID)
		}
		return fmt.Errorf("%s %s: %s (%s)", method, url, apiErr.Error, resp.Status)
	}
	msg := fmt.Sprintf("%s %s: %s", method, url, resp.Status)
	if snippet := strings.TrimSpace(string(data)); snippet != "" {
		const maxSnippet = 200
		if len(snippet) > maxSnippet {
			snippet = snippet[:maxSnippet] + "..."
		}
		msg += ": " + snippet
	}
	if reqID != "" {
		msg += " (request " + reqID + ")"
	}
	return fmt.Errorf("%s", msg)
}

// newIdempotencyKey returns a fresh random key; generated once per logical
// submission and reused across its retries, it is what lets the server
// deduplicate a resent POST /v1/jobs.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "" // no key: the submission is still valid, just not dedupable
	}
	return hex.EncodeToString(b[:])
}

// printJSON writes v to stdout, indented for humans.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func runRemotePush(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("remote push", flag.ExitOnError)
	var (
		server = fs.String("server", "http://localhost:8080", "prefcoverd base URL")
		name   = fs.String("name", "", "registry name for the graph (required)")
		in     = fs.String("in", "-", "graph file (default stdin)")
		format = fs.String("format", "json", "wire format of the input: json, binary or tsv")
	)
	policy := retryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("remote push: -name is required")
	}
	var contentType string
	switch *format {
	case "json":
		contentType = "application/json"
	case "binary":
		contentType = "application/octet-stream"
	case "tsv":
		contentType = "text/tab-separated-values"
	default:
		return fmt.Errorf("remote push: unknown -format %q (want json, binary or tsv)", *format)
	}
	f, closeIn, err := openIn(*in)
	if err != nil {
		return err
	}
	defer closeIn()
	// Buffer the graph so a retried PUT re-sends identical bytes (stdin
	// cannot be re-read).
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("remote push: reading %s: %w", *in, err)
	}
	c := newRemoteClient(policy())
	var info map[string]any
	url := strings.TrimRight(*server, "/") + "/v1/graphs/" + *name
	// PUT replaces the full content, so it is idempotent and safe to retry.
	if err := c.do(ctx, http.MethodPut, url, contentType, data, nil, true, &info); err != nil {
		return err
	}
	return printJSON(info)
}

// requestFlags registers the solve flags remote solve and remote job
// share and returns the request they describe (valid after Parse). Flags
// left at their defaults stay unset in it, so the node applies its own:
// k and threshold only when positive, -lazy=true and workers <= 1 never
// (workers=1 would run the lazy heap build on one worker instead of
// GOMAXPROCS).
func requestFlags(fs *flag.FlagSet, graphUsage string) func() jobs.Request {
	var (
		graphRef  = fs.String("graph", "", graphUsage)
		variant   = fs.String("variant", "independent", "variant: independent or normalized")
		k         = fs.Int("k", 0, "retained-set budget (budget mode)")
		threshold = fs.Float64("threshold", 0, "target cover in (0,1] (minimization mode)")
		lazy      = fs.Bool("lazy", true, "use lazy (CELF) evaluation")
		workers   = fs.Int("workers", 1, "parallel scan workers")
		pins      = fs.String("pins", "", "comma-separated must-stock labels, retained before the greedy fill")
	)
	return func() jobs.Request {
		req := jobs.Request{GraphRef: *graphRef, Variant: *variant, Pins: splitPins(*pins)}
		if *k > 0 {
			req.K = *k
		}
		if *threshold > 0 {
			req.Threshold = *threshold
		}
		if !*lazy {
			req.Lazy = lazy
		}
		if *workers > 1 {
			req.Workers = *workers
		}
		return req
	}
}

// splitPins turns the comma-separated -pins flag into labels.
func splitPins(flagVal string) []string {
	if flagVal == "" {
		return nil
	}
	parts := strings.Split(flagVal, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runRemoteSolve(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("remote solve", flag.ExitOnError)
	var (
		server   = fs.String("server", "http://localhost:8080", "prefcoverd base URL")
		traceOut = fs.String("trace", "", "write a merged client+server Chrome trace-event file here")
	)
	request := requestFlags(fs, "registered graph name (required)")
	policy := retryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := request()
	if req.GraphRef == "" {
		return fmt.Errorf("remote solve: -graph is required")
	}
	// The graph travels in the body, everything else in the query.
	body, _ := json.Marshal(map[string]string{"graph_ref": req.GraphRef})
	url := strings.TrimRight(*server, "/") + "/v1/solve?" + req.Query().Encode()
	c := newRemoteClient(policy())
	if *traceOut != "" {
		c.tr = newClientTrace(*traceOut, "solve", *server)
	}
	var out map[string]any
	// A reference solve is a pure read (POST in verb only) — retry freely.
	err := c.do(ctx, http.MethodPost, url, "application/json", body, nil, true, &out)
	if terr := c.tr.finish(ctx, c.policy); err == nil {
		err = terr
	}
	if err != nil {
		return err
	}
	return printJSON(out)
}

func runRemoteJob(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("remote job", flag.ExitOnError)
	var (
		server   = fs.String("server", "http://localhost:8080", "prefcoverd base URL")
		wait     = fs.Bool("wait", false, "poll the submitted job until it finishes and print the final state")
		interval = fs.Duration("interval", 500*time.Millisecond, "polling interval for -wait")
		status   = fs.String("status", "", "print the state of this job id and exit")
		cancel   = fs.String("cancel", "", "cancel this job id and exit")
		traceOut = fs.String("trace", "", "write a merged client+server Chrome trace-event file here (submission path)")
	)
	request := requestFlags(fs, "registered graph name (submits a new job)")
	policy := retryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := request()
	base := strings.TrimRight(*server, "/")
	c := newRemoteClient(policy())
	switch {
	case *status != "":
		var out map[string]any
		if err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+*status, "", nil, nil, true, &out); err != nil {
			return err
		}
		return printJSON(out)
	case *cancel != "":
		var out map[string]any
		// Not retried: a lost DELETE response is indistinguishable from a
		// successful cancel, and re-sending would 404 on its own success.
		if err := c.do(ctx, http.MethodDelete, base+"/v1/jobs/"+*cancel, "", nil, nil, false, &out); err != nil {
			return err
		}
		return printJSON(out)
	case req.GraphRef == "":
		return fmt.Errorf("remote job: need -graph (submit), -status ID or -cancel ID")
	}
	if *traceOut != "" {
		c.tr = newClientTrace(*traceOut, "job", *server)
	}

	body, _ := json.Marshal(req)
	// One key per logical submission, constant across its retries: the
	// server deduplicates, so POST /v1/jobs becomes effectively idempotent.
	var extra http.Header
	if key := newIdempotencyKey(); key != "" {
		extra = http.Header{"Idempotency-Key": {key}}
	}
	final, err := submitAndWait(ctx, c, base, body, extra, *wait, *interval)
	// The merged trace is written whether the job succeeded or not; a
	// failed round-trip is exactly when the trace is most interesting.
	if terr := c.tr.finish(ctx, c.policy); err == nil {
		err = terr
	}
	if err != nil {
		return err
	}
	return printJSON(final)
}

// submitAndWait posts the job and (with wait) polls it to a terminal
// state, returning the last job payload seen.
func submitAndWait(ctx context.Context, c *remoteClient, base string, body []byte, extra http.Header, wait bool, interval time.Duration) (map[string]any, error) {
	var submitted map[string]any
	if err := c.do(ctx, http.MethodPost, base+"/v1/jobs", "application/json", body, extra, true, &submitted); err != nil {
		return nil, err
	}
	id, _ := submitted["id"].(string)
	if !wait || id == "" {
		return submitted, nil
	}
	for {
		var snap map[string]any
		if err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+id, "", nil, nil, true, &snap); err != nil {
			return nil, err
		}
		switch snap["state"] {
		case "done", "failed", "canceled":
			return snap, nil
		}
		if state, ok := snap["state"].(string); ok {
			if prog, ok := snap["progress"].(map[string]any); ok {
				fmt.Fprintf(os.Stderr, "job %s: %s step=%v cover=%v\n", id, state, prog["step"], prog["cover"])
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
}
