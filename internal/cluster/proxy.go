package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"prefcover/internal/apiclient"
	"prefcover/internal/debugpage"
	"prefcover/internal/jobs"
	"prefcover/internal/retry"
	"prefcover/internal/trace"
)

// hopHeaders are stripped in both directions: they describe one hop
// (client->gateway or gateway->node), not the call.
var hopHeaders = map[string]bool{"Connection": true, "Keep-Alive": true, "Transfer-Encoding": true, "Upgrade": true}

// nodeResponse is one fully-buffered backend reply. Responses are read
// to completion before anything is written to the client so a failed
// attempt can fail over without having committed a status line.
type nodeResponse struct {
	node   string
	status int
	header http.Header
	body   []byte
}

// forward sends r (method, path and query; body resent verbatim on every
// attempt) to the first candidate that answers, failing over through the
// rest via internal/retry. Contract:
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
//
// The successful (or final non-transient) response is returned buffered;
// a nil response means every candidate was exhausted.
func (g *Gateway) forward(r *http.Request, endpoint string, body []byte, candidates []string) (*nodeResponse, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("no nodes available for %s", r.URL.Path)
	}
	requestID := requestIDOf(r)
	inboundTP := r.Header.Get(trace.TraceparentHeader)
	var root *trace.Span
	if sc, err := trace.ParseTraceparent(inboundTP); err == nil && sc.Sampled {
		root = g.tracer.RootContext("gateway "+endpoint, sc)
		root.SetAttr("requestID", requestID)
		root.SetAttr("method", r.Method)
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
		resp, err := g.sendOnce(ctx, r, node, endpoint, body, requestID, tp)
		if err != nil {
			span.SetAttr("error", err.Error())
			g.markFailure(node, "transport", err)
			return retry.TransportError(fmt.Errorf("node %s: %w", node, err))
		}
		span.SetAttr("status", resp.status)
		if retry.StatusTransient(resp.status) {
			statusErr := fmt.Errorf("node %s: %s %s: HTTP %d", node, r.Method, r.URL.Path, resp.status)
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
// Only an attempt that got a full answer counts as forwarded traffic, in
// the request counter and the latency histogram alike; forward counts the
// failed ones in prefcover_gateway_node_failures_total.
func (g *Gateway) sendOnce(ctx context.Context, r *http.Request, node, endpoint string, body []byte, requestID, traceparent string) (*nodeResponse, error) {
	url := node + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, rdr)
	if err != nil {
		return nil, err
	}
	copyForwardHeaders(req.Header, r.Header)
	apiclient.Decorate(req, requestID, traceparent)
	req, cancel := apiclient.WithTimeout(req, g.opts.RequestTimeout)
	defer cancel()

	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// A truncated body (partial fault, dropped connection mid-read) is
		// a transport failure even though a status line arrived.
		return nil, fmt.Errorf("reading response: %w", err)
	}
	g.met.requests.With(node, endpoint, strconv.Itoa(resp.StatusCode)).Inc()
	g.met.latency.With(node, endpoint).Observe(time.Since(start).Seconds())
	return &nodeResponse{node: node, status: resp.StatusCode, header: resp.Header, body: buf}, nil
}

// copyForwardHeaders relays the content/conditional headers that shape
// the node's answer, dropping hop-by-hop ones; identification headers
// are stamped separately by Decorate.
func copyForwardHeaders(dst, src http.Header) {
	for k, vv := range src {
		switch ck := http.CanonicalHeaderKey(k); {
		case hopHeaders[ck], ck == "X-Request-Id", ck == "Traceparent", ck == "Host":
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// relay writes a buffered node response to the client, with the body's
// length, so a large one goes out in one piece rather than chunked. The
// node echoes the forwarded X-Request-ID, which Handler has already set.
func (g *Gateway) relay(w http.ResponseWriter, resp *nodeResponse) {
	h := w.Header()
	for k, vv := range resp.header {
		if ck := http.CanonicalHeaderKey(k); hopHeaders[ck] || ck == "Content-Length" || ck == "X-Request-Id" {
			continue
		}
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	h.Set("X-Prefcover-Node", resp.node)
	if len(resp.body) > 0 { // never for HEAD, 204 or 304
		h.Set("Content-Length", strconv.Itoa(len(resp.body)))
	}
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
		debugpage.Error(w, http.StatusBadRequest,
			fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	if int64(len(body)) > g.opts.MaxBodyBytes {
		debugpage.Error(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", g.opts.MaxBodyBytes))
		return nil, false
	}
	return body, true
}

// forwardAndRelay is the one path of a forwarded call: forward r to the
// candidates in order, relay the answer, or answer 502 once every
// candidate has failed. A non-empty key names the graph or job the call is
// about and turns on the 404 walk: a node answering 404 does not hold the
// key (placement moves at once after a membership change but bytes only on
// the next PUT, and a gateway that never saw a job does not know its
// node), so the walk drops that node and asks the rest before 404 is the
// cluster's answer. keep, when non-nil, sees the answer before it is
// relayed, to remember which node holds key.
func (g *Gateway) forwardAndRelay(w http.ResponseWriter, r *http.Request, endpoint, key string, body []byte, candidates []string, keep func(*nodeResponse)) {
	var resp, notFound *nodeResponse
	var err error
	for remaining := candidates; ; {
		resp, err = g.forward(r, endpoint, body, remaining)
		if err != nil || key == "" || resp.status != http.StatusNotFound {
			break
		}
		notFound = resp
		remaining = slices.DeleteFunc(slices.Clone(remaining), func(n string) bool { return n == resp.node })
		if len(remaining) == 0 {
			break
		}
	}
	if err != nil && notFound != nil {
		resp, err = notFound, nil
	}
	if err != nil {
		debugpage.Error(w, http.StatusBadGateway, fmt.Errorf("all replicas failed: %w", err))
		return
	}
	if keep != nil {
		keep(resp)
	}
	g.relay(w, resp)
}

// thenEveryNode appends every routable node missing from first, in
// routing order: the 404 walk's last resort.
func (g *Gateway) thenEveryNode(first []string) []string {
	out := first
	for _, n := range g.healthyNodes() {
		if !slices.Contains(first, n) {
			out = append(out, n)
		}
	}
	return out
}

// graphCandidates is the failover order for graph-keyed work: the
// graph's replica set first (sticky node leading), then every other
// ring member — for graphs stranded by membership changes.
func (g *Gateway) graphCandidates(key string) []string {
	return g.thenEveryNode(g.routeOrder(key, g.replicasFor(key)))
}

// gather is the fan-out both cluster listings share: it asks every
// routable node once (the forward policy may retry that node) for the
// listing at r's path and returns the bodies of the 200 answers. When some
// node failed and none answered 200 it answers 502 itself and returns
// false.
func (g *Gateway) gather(w http.ResponseWriter, r *http.Request) ([][]byte, bool) {
	var bodies [][]byte
	var firstErr error
	for _, node := range g.healthyNodes() {
		resp, err := g.forward(r, r.URL.Path, nil, []string{node})
		switch {
		case err != nil && firstErr == nil:
			firstErr = err
		case err == nil && resp.status == http.StatusOK:
			bodies = append(bodies, resp.body)
		}
	}
	if len(bodies) == 0 && firstErr != nil {
		debugpage.Error(w, http.StatusBadGateway,
			fmt.Errorf("listing %s: %w", strings.TrimPrefix(r.URL.Path, "/v1/"), firstErr))
		return nil, false
	}
	return bodies, true
}

// --- /v1/graphs (collection) ---

func (g *Gateway) handleGraphList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	bodies, ok := g.gather(w, r)
	if !ok {
		return
	}
	// Every node holds a shard; the cluster listing is the union, deduped
	// by name (replicas report the same graph R times).
	type listBody struct {
		Graphs     []json.RawMessage `json:"graphs"`
		TotalBytes int64             `json:"totalBytes"`
	}
	merged := listBody{Graphs: []json.RawMessage{}}
	seen := make(map[string]bool)
	for _, body := range bodies {
		var lb listBody
		if json.Unmarshal(body, &lb) != nil {
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
	writeJSON(w, merged)
}

// --- /v1/graphs/{name} ---

func (g *Gateway) handleGraph(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	if name == "" || strings.Contains(name, "/") {
		debugpage.Error(w, http.StatusNotFound,
			fmt.Errorf("no such graph route"))
		return
	}
	switch r.Method {
	case http.MethodPut:
		g.replicateGraph(w, r, name)
	case http.MethodGet, http.MethodHead:
		g.forwardAndRelay(w, r, "/v1/graphs/{name}", name, nil, g.graphCandidates(name), g.stick(g.sticky, name))
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
		debugpage.Error(w, http.StatusServiceUnavailable,
			fmt.Errorf("ring is empty (all nodes drained?)"))
		return
	}
	primaryResp, err := g.forward(r, "/v1/graphs/{name}", body, replicas[:1])
	if err != nil {
		debugpage.Error(w, http.StatusBadGateway,
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
		g.replicateOne(r, secondary, body, etag)
	}
	g.remember(g.sticky, name, primaryResp.node)
	w.Header().Set("X-Prefcover-Replicas", strconv.Itoa(len(replicas)))
	g.relay(w, primaryResp)
}

// replicateOne writes one secondary replica, skipping the upload when a
// conditional HEAD proves the replica already holds these exact bytes
// (304 against the primary's ETag — the content hash, so "same ETag"
// means "same canonical graph encoding").
func (g *Gateway) replicateOne(r *http.Request, node string, body []byte, etag string) {
	if etag != "" {
		probe := r.Clone(r.Context())
		probe.Method = http.MethodHead
		probe.URL.RawQuery = ""
		probe.Header = http.Header{"If-None-Match": {etag}}
		if tp := r.Header.Get(trace.TraceparentHeader); tp != "" {
			probe.Header.Set(trace.TraceparentHeader, tp)
		}
		head, err := g.forward(probe, "/v1/graphs/{name}", nil, []string{node})
		if err == nil && head.status == http.StatusNotModified {
			g.met.replication.With("reconciled").Inc()
			return
		}
	}
	resp, err := g.forward(r, "/v1/graphs/{name}", body, []string{node})
	if err != nil || resp.status >= 300 {
		g.met.replication.With("failed").Inc()
		if g.logger != nil {
			msg := "replication write failed"
			if err != nil {
				g.logger.Warn(msg, "node", node, "graph", r.URL.Path, "error", err.Error())
			} else {
				g.logger.Warn(msg, "node", node, "graph", r.URL.Path, "status", resp.status)
			}
		}
		return
	}
	g.met.replication.With("stored").Inc()
}

// deleteGraph fans the delete out to every routable node, the set gather
// and the 404 walk use, and relays the best (lowest) status, so any node
// that held the graph makes it a success. The current replica set is not
// enough: after a join moves the primary, a former replica keeps a copy
// the walk would still find.
func (g *Gateway) deleteGraph(w http.ResponseWriter, r *http.Request, name string) {
	var best *nodeResponse
	for _, node := range g.healthyNodes() {
		resp, err := g.forward(r, "/v1/graphs/{name}", nil, []string{node})
		if err != nil {
			continue
		}
		if best == nil || resp.status < best.status {
			best = resp
		}
	}
	g.mu.Lock()
	g.sticky.Remove(name)
	g.mu.Unlock()
	if best == nil {
		debugpage.Error(w, http.StatusBadGateway,
			fmt.Errorf("all nodes failed to delete %s", name))
		return
	}
	g.relay(w, best)
}

// --- /v1/solve ---

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
	if ref := jobs.GraphRef(body); ref != "" {
		g.met.routed.With("sticky").Inc()
		g.forwardAndRelay(w, r, "/v1/solve", ref, body, g.graphCandidates(ref), g.stick(g.sticky, ref))
		return
	}
	g.met.routed.With("least_loaded").Inc()
	g.forwardAndRelay(w, r, "/v1/solve", "", body, g.healthyNodes(), nil)
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
		g.forwardAndRelay(w, r, endpoint, "", body, g.healthyNodes(), nil)
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
// it for later status polls. The node validates the request: one without
// a graph_ref goes to the least-loaded node, which rejects it.
func (g *Gateway) submitJob(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	ref, candidates := jobs.GraphRef(body), g.healthyNodes()
	if ref != "" {
		candidates = g.graphCandidates(ref)
	}
	g.forwardAndRelay(w, r, "/v1/jobs", ref, body, candidates, func(resp *nodeResponse) {
		if resp.status != http.StatusAccepted {
			return
		}
		var job struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(resp.body, &job) == nil {
			g.remember(g.jobOwner, job.ID, resp.node)
		}
		g.remember(g.sticky, ref, resp.node)
	})
}

// listJobs merges the queue listing across every healthy node.
func (g *Gateway) listJobs(w http.ResponseWriter, r *http.Request) {
	bodies, ok := g.gather(w, r)
	if !ok {
		return
	}
	merged := []json.RawMessage{}
	for _, body := range bodies {
		var lb struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if json.Unmarshal(body, &lb) == nil {
			merged = append(merged, lb.Jobs...)
		}
	}
	writeJSON(w, map[string]any{"jobs": merged})
}

// handleJob routes job status and cancel through the 404 walk, the node
// that accepted the job first: a gateway that restarted, or evicted the
// job from its map, still finds the job on whichever node has it.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		debugpage.Error(w, http.StatusNotFound,
			fmt.Errorf("no such job route"))
		return
	}
	var first []string
	if owner := g.jobNode(id); owner != "" {
		first = []string{owner}
	}
	g.forwardAndRelay(w, r, "/v1/jobs/{id}", id, nil, g.thenEveryNode(first), g.stick(g.jobOwner, id))
}

func (g *Gateway) methodNotAllowed(w http.ResponseWriter, r *http.Request, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	debugpage.Error(w, http.StatusMethodNotAllowed,
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
