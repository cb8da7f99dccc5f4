package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"prefcover/internal/apiclient"
	"prefcover/internal/jobs"
	"prefcover/internal/retry"
	"prefcover/internal/trace"
)

// hopHeaders are stripped when relaying a node response: they describe
// the gateway->node hop, not the client->gateway one.
var hopHeaders = []string{"Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade"}

// nodeResponse is one fully-buffered backend reply. Responses are read
// to completion before anything is written to the client so a failed
// attempt can fail over without having committed a status line.
type nodeResponse struct {
	node   string
	status int
	header http.Header
	body   []byte
}

// forward sends one logical call to the first candidate that answers,
// failing over through the rest via internal/retry. Contract:
//
//   - One X-Request-ID per inbound request (the one Handler resolved),
//     constant across attempts and calls.
//   - One traceparent per attempt: when the inbound trace is sampled the
//     gateway records a root span with a child per attempt, so the trace
//     reads client -> gateway -> node; otherwise the inbound header (or
//     a fresh unsampled one) is passed through.
//   - Transport errors and transient statuses (5xx, 429) mark the node
//     failed and advance to the next candidate; any other status is the
//     node's authoritative answer and is relayed as-is.
//   - body is resent verbatim on every attempt (callers buffer it).
//
// The successful (or final non-transient) response is returned buffered;
// a nil response means every candidate was exhausted.
func (g *Gateway) forward(r *http.Request, endpoint, method, path, rawQuery string, body []byte, candidates []string) (*nodeResponse, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("no nodes available for %s", path)
	}
	requestID := requestIDOf(r)
	inboundTP := r.Header.Get(trace.TraceparentHeader)
	var root *trace.Span
	if sc, err := trace.ParseTraceparent(inboundTP); err == nil && sc.Sampled {
		root = g.tracer.RootContext("gateway "+endpoint, sc)
		root.SetAttr("requestID", requestID)
		root.SetAttr("method", method)
		defer root.End()
	}
	if inboundTP == "" {
		inboundTP = apiclient.NewTraceparent(false)
	}

	maxAttempts := g.opts.MaxAttempts
	if len(candidates) > maxAttempts {
		maxAttempts = len(candidates)
	}
	policy := retry.Policy{
		MaxAttempts: maxAttempts,
		BaseDelay:   g.opts.RetryBase,
		Jitter:      0.5,
		Observer:    &forwardObserver{g: g, endpoint: endpoint},
	}

	attempt := 0
	var result *nodeResponse
	err := policy.Do(r.Context(), func(ctx context.Context) error {
		node := candidates[attempt%len(candidates)]
		attempt++
		span := root.Child("forward " + node)
		span.SetAttr("node", node)
		span.SetAttr("attempt", attempt)
		defer span.End()

		tp := inboundTP
		if sc := span.Context(); sc.Valid() {
			tp = sc.Traceparent()
		}
		resp, err := g.sendOnce(ctx, node, endpoint, method, path, rawQuery, body, r.Header, requestID, tp)
		if err != nil {
			span.SetAttr("error", err.Error())
			g.markFailure(node, "transport", err)
			return retry.TransportError(fmt.Errorf("node %s: %w", node, err))
		}
		span.SetAttr("status", resp.status)
		if retry.StatusTransient(resp.status) {
			statusErr := fmt.Errorf("node %s: %s %s: HTTP %d", node, method, path, resp.status)
			g.markFailure(node, "status", statusErr)
			return retry.HTTPStatusError(resp.status, resp.header, statusErr)
		}
		result = resp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// sendOnce performs a single gateway->node request and buffers the reply.
func (g *Gateway) sendOnce(ctx context.Context, node, endpoint, method, path, rawQuery string, body []byte, inbound http.Header, requestID, traceparent string) (*nodeResponse, error) {
	url := node + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rdr)
	if err != nil {
		return nil, err
	}
	copyForwardHeaders(req.Header, inbound)
	apiclient.Decorate(req, requestID, traceparent)
	req, cancel := apiclient.WithTimeout(req, g.opts.RequestTimeout)
	defer cancel()

	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		g.met.latency.With(node, endpoint).Observe(time.Since(start).Seconds())
		return nil, err
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	g.met.latency.With(node, endpoint).Observe(time.Since(start).Seconds())
	if err != nil {
		// A truncated body (partial fault, dropped connection mid-read) is
		// a transport failure even though a status line arrived.
		return nil, fmt.Errorf("reading response: %w", err)
	}
	g.met.requests.With(node, endpoint, strconv.Itoa(resp.StatusCode)).Inc()
	return &nodeResponse{node: node, status: resp.StatusCode, header: resp.Header, body: buf}, nil
}

// copyForwardHeaders relays the content/conditional headers that shape
// the node's answer, dropping hop-by-hop ones; identification headers
// are stamped separately by Decorate.
func copyForwardHeaders(dst, src http.Header) {
	for k, vv := range src {
		switch http.CanonicalHeaderKey(k) {
		case "X-Request-Id", trace.TraceparentHeader, "Traceparent", "Host":
			continue
		}
		hop := false
		for _, h := range hopHeaders {
			if http.CanonicalHeaderKey(k) == h {
				hop = true
				break
			}
		}
		if hop {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// relay writes a buffered node response to the client. The node echoes
// the forwarded X-Request-ID, which Handler has already set.
func (g *Gateway) relay(w http.ResponseWriter, resp *nodeResponse) {
	h := w.Header()
	for k, vv := range resp.header {
		canonical := http.CanonicalHeaderKey(k)
		hop := false
		for _, hh := range hopHeaders {
			if canonical == hh {
				hop = true
				break
			}
		}
		if hop || canonical == "Content-Length" || canonical == "X-Request-Id" {
			continue
		}
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	h.Set("X-Prefcover-Node", resp.node)
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// readBody buffers an inbound request body for replayable forwarding.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, g.opts.MaxBodyBytes+1))
	if err != nil {
		g.writeGatewayError(w, r, http.StatusBadRequest,
			fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	if int64(len(body)) > g.opts.MaxBodyBytes {
		g.writeGatewayError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", g.opts.MaxBodyBytes))
		return nil, false
	}
	return body, true
}

// forwardAndRelay is the common "route with failover, relay the answer"
// path; key selects sticky bookkeeping (remembered on success).
func (g *Gateway) forwardAndRelay(w http.ResponseWriter, r *http.Request, endpoint, key string, body []byte, candidates []string) {
	resp, err := g.forward(r, endpoint, r.Method, r.URL.Path, r.URL.RawQuery, body, candidates)
	if err != nil {
		g.writeGatewayError(w, r, http.StatusBadGateway,
			fmt.Errorf("all replicas failed: %w", err))
		return
	}
	if key != "" && resp.status < 500 {
		g.rememberSticky(key, resp.node)
	}
	g.relay(w, resp)
}

// forwardGraphKeyed routes a graph-keyed call (reference solve, graph
// download, job submission) with an extra layer above transient
// failover: a replica answering 404 means "this node does not hold the
// graph" — which happens transiently after membership changes, because
// placement recomputes instantly but bytes only move on the next PUT —
// so the walk drops that node and asks the remaining candidates before
// accepting "not found" as the cluster's answer.
func (g *Gateway) forwardGraphKeyed(w http.ResponseWriter, r *http.Request, endpoint, key string, body []byte, candidates []string) {
	resp, err := g.forwardWalk(r, endpoint, r.Method, r.URL.Path, r.URL.RawQuery, body, candidates)
	if err != nil {
		g.writeGatewayError(w, r, http.StatusBadGateway,
			fmt.Errorf("all replicas failed: %w", err))
		return
	}
	if key != "" && resp.status < 500 {
		g.rememberSticky(key, resp.node)
	}
	g.relay(w, resp)
}

// forwardWalk implements the 404 walk: forward with transient failover,
// and when the answering node says 404, drop it from the candidate set
// and ask the rest. Returns the first non-404 answer, the last 404 once
// every candidate has disclaimed the graph, or an error if every
// candidate died in transport without any 404 to fall back on.
func (g *Gateway) forwardWalk(r *http.Request, endpoint, method, path, rawQuery string, body []byte, candidates []string) (*nodeResponse, error) {
	remaining := candidates
	var notFound *nodeResponse
	for len(remaining) > 0 {
		resp, err := g.forward(r, endpoint, method, path, rawQuery, body, remaining)
		if err != nil {
			if notFound != nil {
				return notFound, nil
			}
			return nil, err
		}
		if resp.status == http.StatusNotFound {
			notFound = resp
			next := remaining[:0:0]
			for _, c := range remaining {
				if c != resp.node {
					next = append(next, c)
				}
			}
			remaining = next
			continue
		}
		return resp, nil
	}
	if notFound != nil {
		return notFound, nil
	}
	return nil, fmt.Errorf("no nodes available for %s", path)
}

// graphCandidates is the failover order for graph-keyed work: the
// graph's replica set first (sticky node leading), then every other
// ring member — the 404 walk's last resort for graphs stranded by
// membership changes.
func (g *Gateway) graphCandidates(key string) []string {
	out := g.routeOrder(key, g.replicasFor(key))
	seen := make(map[string]bool, len(out))
	for _, n := range out {
		seen[n] = true
	}
	for _, n := range g.healthyNodes() {
		if !seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// --- /v1/graphs (collection) ---

func (g *Gateway) handleGraphList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	// Every node holds a shard; the cluster listing is the union, deduped
	// by name (replicas report the same graph R times).
	type listBody struct {
		Graphs     []json.RawMessage `json:"graphs"`
		TotalBytes int64             `json:"totalBytes"`
	}
	seen := make(map[string]bool)
	var merged listBody
	merged.Graphs = []json.RawMessage{}
	var firstErr error
	for _, node := range g.healthyNodes() {
		resp, err := g.forward(r, "/v1/graphs", http.MethodGet, "/v1/graphs", r.URL.RawQuery, nil, []string{node})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if resp.status != http.StatusOK {
			continue
		}
		var lb listBody
		if err := json.Unmarshal(resp.body, &lb); err != nil {
			continue
		}
		for _, raw := range lb.Graphs {
			var meta struct {
				Name  string `json:"name"`
				Bytes int64  `json:"bytes"`
			}
			if err := json.Unmarshal(raw, &meta); err != nil || meta.Name == "" || seen[meta.Name] {
				continue
			}
			seen[meta.Name] = true
			merged.Graphs = append(merged.Graphs, raw)
			merged.TotalBytes += meta.Bytes
		}
	}
	if len(seen) == 0 && firstErr != nil {
		g.writeGatewayError(w, r, http.StatusBadGateway,
			fmt.Errorf("listing graphs: %w", firstErr))
		return
	}
	writeJSON(w, merged)
}

// --- /v1/graphs/{name} ---

func (g *Gateway) handleGraph(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	if name == "" || strings.Contains(name, "/") {
		g.writeGatewayError(w, r, http.StatusNotFound,
			fmt.Errorf("no such graph route"))
		return
	}
	switch r.Method {
	case http.MethodPut:
		g.replicateGraph(w, r, name)
	case http.MethodGet, http.MethodHead:
		g.forwardGraphKeyed(w, r, "/v1/graphs/{name}", name, nil, g.graphCandidates(name))
	case http.MethodDelete:
		g.deleteGraph(w, r, name)
	default:
		g.methodNotAllowed(w, r, http.MethodPut, http.MethodGet, http.MethodHead, http.MethodDelete)
	}
}

// replicateGraph fans a PUT out to the graph's R-replica set: the
// primary's answer is authoritative (its ETag/body relay to the client);
// secondaries reconcile by conditional HEAD — a replica that already
// holds the content hash (304) is not re-uploaded.
func (g *Gateway) replicateGraph(w http.ResponseWriter, r *http.Request, name string) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	replicas := g.replicasFor(name)
	if len(replicas) == 0 {
		g.writeGatewayError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("ring is empty (all nodes drained?)"))
		return
	}
	primaryResp, err := g.forward(r, "/v1/graphs/{name}", http.MethodPut, r.URL.Path, r.URL.RawQuery, body, replicas[:1])
	if err != nil {
		g.writeGatewayError(w, r, http.StatusBadGateway,
			fmt.Errorf("primary write failed: %w", err))
		return
	}
	if primaryResp.status >= 300 {
		// The primary rejected the upload (bad body, name, size): nothing
		// to replicate, relay the verdict.
		g.relay(w, primaryResp)
		return
	}
	etag := primaryResp.header.Get("ETag")
	for _, secondary := range replicas[1:] {
		g.replicateOne(r, secondary, r.URL.Path, r.URL.RawQuery, body, etag)
	}
	g.rememberSticky(name, primaryResp.node)
	w.Header().Set("X-Prefcover-Replicas", strconv.Itoa(len(replicas)))
	g.relay(w, primaryResp)
}

// replicateOne writes one secondary replica, skipping the upload when a
// conditional HEAD proves the replica already holds these exact bytes
// (304 against the primary's ETag — the content hash, so "same ETag"
// means "same canonical graph encoding").
func (g *Gateway) replicateOne(r *http.Request, node, path, rawQuery string, body []byte, etag string) {
	if etag != "" {
		probe := r.Clone(r.Context())
		probe.Header = http.Header{"If-None-Match": {etag}}
		if tp := r.Header.Get(trace.TraceparentHeader); tp != "" {
			probe.Header.Set(trace.TraceparentHeader, tp)
		}
		head, err := g.forward(probe, "/v1/graphs/{name}", http.MethodHead, path, "", nil, []string{node})
		if err == nil && head.status == http.StatusNotModified {
			g.met.replication.With("reconciled").Inc()
			return
		}
	}
	resp, err := g.forward(r, "/v1/graphs/{name}", http.MethodPut, path, rawQuery, body, []string{node})
	if err != nil || resp.status >= 300 {
		g.met.replication.With("failed").Inc()
		if g.logger != nil {
			msg := "replication write failed"
			if err != nil {
				g.logger.Warn(msg, "node", node, "graph", path, "error", err.Error())
			} else {
				g.logger.Warn(msg, "node", node, "graph", path, "status", resp.status)
			}
		}
		return
	}
	g.met.replication.With("stored").Inc()
}

// deleteGraph fans the delete out to every replica; 200 if any replica
// held it.
func (g *Gateway) deleteGraph(w http.ResponseWriter, r *http.Request, name string) {
	replicas := g.replicasFor(name)
	var best *nodeResponse
	for _, node := range replicas {
		resp, err := g.forward(r, "/v1/graphs/{name}", http.MethodDelete, r.URL.Path, r.URL.RawQuery, nil, []string{node})
		if err != nil {
			continue
		}
		if best == nil || resp.status < best.status {
			best = resp
		}
	}
	g.forgetSticky(name)
	if best == nil {
		g.writeGatewayError(w, r, http.StatusBadGateway,
			fmt.Errorf("all replicas failed to delete %s", name))
		return
	}
	g.relay(w, best)
}

// --- /v1/solve ---

// solveRefBody is the part of a solve body the gateway routes on.
type solveRefBody struct {
	GraphRef string `json:"graph_ref"`
}

func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.methodNotAllowed(w, r, http.MethodPost)
		return
	}
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	// Reference solves are sticky-routed to the graph's replica set so
	// repeat solves hit a warm prefix cache; inline solves carry their
	// graph with them and go wherever load is lowest.
	var ref solveRefBody
	_ = json.Unmarshal(body, &ref)
	if ref.GraphRef != "" {
		g.met.routed.With("sticky").Inc()
		g.forwardGraphKeyed(w, r, "/v1/solve", ref.GraphRef, body, g.graphCandidates(ref.GraphRef))
		return
	}
	g.met.routed.With("least_loaded").Inc()
	g.forwardAndRelay(w, r, "/v1/solve", "", body, g.healthyNodes())
}

// handleCompute serves the stateless compute endpoints (adapt, pipeline,
// stats): any healthy node can answer, least-loaded first.
func (g *Gateway) handleCompute(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			g.methodNotAllowed(w, r, http.MethodPost)
			return
		}
		body, ok := g.readBody(w, r)
		if !ok {
			return
		}
		g.met.routed.With("least_loaded").Inc()
		g.forwardAndRelay(w, r, endpoint, "", body, g.healthyNodes())
	}
}

// --- /v1/jobs ---

func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		g.submitJob(w, r)
	case http.MethodGet:
		g.listJobs(w, r)
	default:
		g.methodNotAllowed(w, r, http.MethodGet, http.MethodPost)
	}
}

// submitJob routes an async solve to the referenced graph's replica set
// (the job's worker solves against the local registry, so the job must
// land on a node that holds the graph) and records which node accepted
// it for later status polls.
func (g *Gateway) submitJob(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	req, err := jobs.ParseRequest(body)
	if err != nil {
		g.writeGatewayError(w, r, http.StatusBadRequest, err)
		return
	}
	candidates := g.graphCandidates(req.GraphRef)
	resp, ferr := g.forwardWalk(r, "/v1/jobs", http.MethodPost, r.URL.Path, r.URL.RawQuery, body, candidates)
	if ferr != nil {
		g.writeGatewayError(w, r, http.StatusBadGateway,
			fmt.Errorf("all replicas failed: %w", ferr))
		return
	}
	if resp.status == http.StatusAccepted {
		var payload struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(resp.body, &payload) == nil {
			g.rememberJob(payload.ID, resp.node)
		}
		g.rememberSticky(req.GraphRef, resp.node)
	}
	g.relay(w, resp)
}

// listJobs merges the queue listing across every healthy node.
func (g *Gateway) listJobs(w http.ResponseWriter, r *http.Request) {
	merged := []json.RawMessage{}
	var firstErr error
	got := false
	for _, node := range g.healthyNodes() {
		resp, err := g.forward(r, "/v1/jobs", http.MethodGet, "/v1/jobs", r.URL.RawQuery, nil, []string{node})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if resp.status != http.StatusOK {
			continue
		}
		var lb struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if json.Unmarshal(resp.body, &lb) == nil {
			merged = append(merged, lb.Jobs...)
			got = true
		}
	}
	if !got && firstErr != nil {
		g.writeGatewayError(w, r, http.StatusBadGateway,
			fmt.Errorf("listing jobs: %w", firstErr))
		return
	}
	writeJSON(w, map[string]any{"jobs": merged})
}

// handleJob routes job status/cancel to the node that accepted the job;
// unknown IDs (gateway restarted, map evicted) fall back to asking every
// node until one recognizes it.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		g.writeGatewayError(w, r, http.StatusNotFound,
			fmt.Errorf("no such job route"))
		return
	}
	if owner := g.jobNode(id); owner != "" {
		resp, err := g.forward(r, "/v1/jobs/{id}", r.Method, r.URL.Path, r.URL.RawQuery, nil, []string{owner})
		if err == nil && resp.status != http.StatusNotFound {
			g.relay(w, resp)
			return
		}
	}
	var notFound *nodeResponse
	for _, node := range g.healthyNodes() {
		resp, err := g.forward(r, "/v1/jobs/{id}", r.Method, r.URL.Path, r.URL.RawQuery, nil, []string{node})
		if err != nil {
			continue
		}
		if resp.status == http.StatusNotFound {
			notFound = resp
			continue
		}
		g.rememberJob(id, node)
		g.relay(w, resp)
		return
	}
	if notFound != nil {
		g.relay(w, notFound)
		return
	}
	g.writeGatewayError(w, r, http.StatusBadGateway,
		fmt.Errorf("no node could answer for job %s", id))
}

func (g *Gateway) methodNotAllowed(w http.ResponseWriter, r *http.Request, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	g.writeGatewayError(w, r, http.StatusMethodNotAllowed,
		fmt.Errorf("method %s not allowed", r.Method))
}

// forwardObserver wires retry lifecycle events into the failover
// counters.
type forwardObserver struct {
	g        *Gateway
	endpoint string
}

func (o *forwardObserver) Attempt() {}

func (o *forwardObserver) Retry(_ time.Duration, _ bool, _ error) {
	o.g.met.failovers.With(o.endpoint).Inc()
}

func (o *forwardObserver) GiveUp(error) {
	o.g.met.giveUps.With(o.endpoint).Inc()
}
