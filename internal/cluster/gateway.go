package cluster

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"prefcover/internal/apiclient"
	"prefcover/internal/metrics"
	"prefcover/internal/slo"
	"prefcover/internal/trace"
	"prefcover/internal/version"
)

// Defaults for Options' zero values.
const (
	DefaultReplicas      = 2
	DefaultProbeInterval = 2 * time.Second
	DefaultProbeTimeout  = time.Second
	DefaultMaxAttempts   = 3
	DefaultRetryBase     = 50 * time.Millisecond
	DefaultMaxBodyBytes  = 256 << 20
	DefaultScrapeTimeout = 5 * time.Second
)

// Options shapes a Gateway.
type Options struct {
	// Nodes are the backend prefcoverd base URLs ("http://host:port").
	// At least one is required; more can join at runtime via
	// /debug/cluster.
	Nodes []string
	// Replicas is R: how many nodes hold each graph (capped at the node
	// count). 0 means DefaultReplicas.
	Replicas int
	// VNodes is the virtual-node count per backend on the hash ring.
	// 0 means DefaultVNodes.
	VNodes int
	// Logger receives health transitions and forwarding warnings; nil
	// disables logging.
	Logger *slog.Logger
	// ProbeInterval is the readiness-probe period (0 = 2s); ProbeTimeout
	// bounds one probe (0 = 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// RequestTimeout bounds one forwarded attempt end to end. 0 means no
	// gateway-side limit (reference solves may run long; the node owns
	// its own deadline).
	RequestTimeout time.Duration
	// MaxAttempts is the failover budget per logical call, including the
	// first attempt (0 = DefaultMaxAttempts); RetryBase seeds the backoff
	// between attempts (0 = DefaultRetryBase).
	MaxAttempts int
	RetryBase   time.Duration
	// DisableKeepAlives forces a fresh gateway->node connection per
	// request. The chaos harness sets it so injected connection resets
	// surface as exactly one observed failure (net/http silently replays
	// idempotent requests on dead reused connections).
	DisableKeepAlives bool
	// MaxBodyBytes caps a buffered inbound request body (bodies are held
	// in memory so failover can resend them). 0 = DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// TraceCapacity sizes the gateway's flight-recorder ring (0 = trace
	// package default).
	TraceCapacity int

	// ScrapeInterval turns on metrics federation: every interval the
	// gateway pulls each node's /metrics, re-exports the families as
	// prefcover_node_*{node=...} plus prefcover_cluster_* sums on its own
	// /metrics, and feeds the snapshot ring behind statusz and the SLO
	// evaluator. 0 disables federation unless SLO asks for it (then the
	// slo package's default cadence applies).
	ScrapeInterval time.Duration
	// ScrapeTimeout bounds one node /metrics pull (0 = 5s).
	ScrapeTimeout time.Duration
	// SLO lists cluster-level objectives evaluated against the
	// prefcover_cluster_* aggregates (see internal/slo's grammar).
	SLO slo.Spec
	// SLOFastWindow/SLOSlowWindow/SLOForDuration tune the burn-rate
	// evaluator; zero values use the slo defaults (5m/1h/30s).
	SLOFastWindow  time.Duration
	SLOSlowWindow  time.Duration
	SLOForDuration time.Duration
	// AlertWebhook, when set, receives firing/resolved transitions as
	// JSON POSTs with retry.
	AlertWebhook string
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = DefaultReplicas
	}
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = DefaultProbeTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.RetryBase <= 0 {
		o.RetryBase = DefaultRetryBase
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.TraceCapacity <= 0 {
		o.TraceCapacity = trace.DefaultCapacity
	}
	if o.ScrapeTimeout <= 0 {
		o.ScrapeTimeout = DefaultScrapeTimeout
	}
	return o
}

// Gateway routes the prefcoverd HTTP API across a set of backend nodes:
// consistent-hash placement with R-way replication for graphs, sticky
// least-loaded routing for solves, replica failover on node failure. It
// is an http.Handler factory (Handler) plus a background readiness
// prober; Close stops the prober.
type Gateway struct {
	opts   Options
	ring   *Ring
	client *http.Client
	reg    *metrics.Registry
	met    *gwMetrics
	tracer *trace.Tracer
	logger *slog.Logger
	start  time.Time

	// Federation state: the cluster SLO monitor owns the scrape loop and
	// the tsdb ring; fed holds the latest parsed snapshot per node. Both
	// are nil/empty when Options left federation off.
	monitor *slo.Monitor
	fed     federation

	mu     sync.Mutex
	nodes  map[string]*nodeState // every known node, drained included
	sticky map[string]string     // graph name -> last good replica
	// jobOwner remembers which node accepted each async job so status
	// polls route straight to it; jobOrder caps the map FIFO-style.
	jobOwner map[string]string
	jobOrder []string

	probeStop chan struct{}
	probeDone chan struct{}
}

// maxTrackedJobs bounds the job->node ownership map; beyond it the oldest
// entries fall back to fan-out lookup (nodes themselves retain finished
// jobs only briefly, so stale entries have no value).
const maxTrackedJobs = 8192

// New validates opts, builds the ring, runs one synchronous probe round
// (so the gateway routes correctly from its first request) and starts
// the background prober.
func New(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: at least one node is required")
	}
	g := &Gateway{
		opts:      opts,
		ring:      NewRing(opts.VNodes),
		reg:       metrics.NewRegistry(),
		tracer:    trace.New(opts.TraceCapacity),
		logger:    opts.Logger,
		start:     time.Now(),
		nodes:     make(map[string]*nodeState),
		sticky:    make(map[string]string),
		jobOwner:  make(map[string]string),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	g.met = newGwMetrics(g.reg)
	g.client = apiclient.New(apiclient.Options{
		DisableKeepAlives: opts.DisableKeepAlives,
		Hosts:             len(opts.Nodes),
	})
	for _, raw := range opts.Nodes {
		url, err := normalizeNodeURL(raw)
		if err != nil {
			return nil, err
		}
		if g.nodes[url] != nil {
			return nil, fmt.Errorf("cluster: duplicate node %s", url)
		}
		// Optimistically healthy until the first probe says otherwise:
		// a gateway that boots before its nodes should still route (the
		// forward path degrades unreachable nodes on first failure).
		g.nodes[url] = &nodeState{healthy: true}
		g.ring.Add(url)
	}
	g.probeAll()
	if opts.federationEnabled() {
		g.monitor = g.newMonitor()
		g.monitor.Start()
	}
	go g.probeLoop()
	return g, nil
}

// normalizeNodeURL canonicalizes a backend address: scheme required
// (http:// assumed when absent), no trailing slash, no path.
func normalizeNodeURL(raw string) (string, error) {
	u := strings.TrimSpace(raw)
	if u == "" {
		return "", fmt.Errorf("cluster: empty node URL")
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	u = strings.TrimRight(u, "/")
	if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
		return "", fmt.Errorf("cluster: node %q: only http/https backends are supported", raw)
	}
	if strings.Count(u, "/") > 2 {
		return "", fmt.Errorf("cluster: node %q must be a base URL without a path", raw)
	}
	return u, nil
}

// Close stops the prober and the federation scrape loop, then releases
// pooled connections.
func (g *Gateway) Close() {
	if g.monitor != nil {
		g.monitor.Close()
	}
	close(g.probeStop)
	<-g.probeDone
	g.client.CloseIdleConnections()
}

// Registry exposes the gateway's metric registry (tests).
func (g *Gateway) Registry() *metrics.Registry { return g.reg }

// Ring exposes the placement ring (tests, statusz).
func (g *Gateway) Ring() *Ring { return g.ring }

// Handler returns the gateway's routed handler: the full /v1 API
// forwarded to backends, plus the gateway's own health, metrics and
// debug surface.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok", "role": "gateway"})
	})
	mux.HandleFunc("/readyz", g.handleReady)
	mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, version.Get())
	})
	mux.Handle("/metrics", metrics.Handler(g.snapshot))
	mux.HandleFunc("/debug/cluster", g.handleCluster)
	mux.HandleFunc("/debug/statusz", g.handleStatusz)
	mux.HandleFunc("/debug/traces", g.handleTraces)
	if g.monitor != nil {
		mux.Handle("/debug/slo", g.monitor.DebugHandler())
	} else {
		mux.Handle("/debug/slo", slo.DisabledHandler())
	}

	mux.HandleFunc("/v1/graphs", g.handleGraphList)
	mux.HandleFunc("/v1/graphs/", g.handleGraph)
	mux.HandleFunc("/v1/solve", g.handleSolve)
	mux.HandleFunc("/v1/adapt", g.handleCompute("/v1/adapt"))
	mux.HandleFunc("/v1/pipeline", g.handleCompute("/v1/pipeline"))
	mux.HandleFunc("/v1/stats", g.handleCompute("/v1/stats"))
	mux.HandleFunc("/v1/jobs", g.handleJobs)
	mux.HandleFunc("/v1/jobs/", g.handleJob)
	return mux
}

// handleReady reports gateway readiness: at least one healthy,
// routable node on the ring.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	for _, ns := range g.snapshots() {
		if ns.Healthy && g.ring.Contains(ns.URL) {
			healthy++
		}
	}
	resp := map[string]any{
		"status":       "ready",
		"ringNodes":    g.ring.Len(),
		"healthyNodes": healthy,
	}
	if healthy == 0 {
		resp["status"] = "unavailable"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// replicasFor returns the ring's R-replica set for a graph name.
func (g *Gateway) replicasFor(name string) []string {
	return g.ring.Lookup(name, g.opts.Replicas)
}

// routeOrder orders candidate nodes for a failover walk: the sticky node
// for key first (when still a candidate and healthy), then healthy
// candidates by ascending load, then unhealthy ones as a last resort —
// a probe may be stale and a "down" replica is still better than a
// guaranteed 502.
func (g *Gateway) routeOrder(key string, candidates []string) []string {
	if len(candidates) == 0 {
		return nil
	}
	snaps := make(map[string]nodeSnapshot, len(candidates))
	for _, ns := range g.snapshots() {
		snaps[ns.URL] = ns
	}
	var stickyNode string
	if key != "" {
		g.mu.Lock()
		stickyNode = g.sticky[key]
		g.mu.Unlock()
	}
	healthy := make([]string, 0, len(candidates))
	unhealthy := make([]string, 0, len(candidates))
	for _, c := range candidates {
		if snaps[c].Healthy {
			healthy = append(healthy, c)
		} else {
			unhealthy = append(unhealthy, c)
		}
	}
	// Stable least-loaded order among the healthy set.
	for i := 1; i < len(healthy); i++ {
		for j := i; j > 0 && snaps[healthy[j]].load() < snaps[healthy[j-1]].load(); j-- {
			healthy[j], healthy[j-1] = healthy[j-1], healthy[j]
		}
	}
	out := make([]string, 0, len(candidates))
	if stickyNode != "" {
		for _, c := range healthy {
			if c == stickyNode {
				out = append(out, c)
				break
			}
		}
	}
	for _, c := range healthy {
		if len(out) > 0 && c == out[0] {
			continue
		}
		out = append(out, c)
	}
	out = append(out, unhealthy...)
	return out
}

// healthyNodes returns all routable ring members ordered by ascending
// load (for inline work with no placement key), unhealthy members last.
func (g *Gateway) healthyNodes() []string {
	return g.routeOrder("", g.ring.Nodes())
}

// rememberSticky records that node served graph key successfully.
func (g *Gateway) rememberSticky(key, node string) {
	if key == "" || node == "" {
		return
	}
	g.mu.Lock()
	g.sticky[key] = node
	g.mu.Unlock()
}

// forgetSticky drops the sticky route for key (graph deleted).
func (g *Gateway) forgetSticky(key string) {
	g.mu.Lock()
	delete(g.sticky, key)
	g.mu.Unlock()
}

// rememberJob records which node accepted job id.
func (g *Gateway) rememberJob(id, node string) {
	if id == "" || node == "" {
		return
	}
	g.mu.Lock()
	if _, ok := g.jobOwner[id]; !ok {
		g.jobOrder = append(g.jobOrder, id)
		for len(g.jobOrder) > maxTrackedJobs {
			delete(g.jobOwner, g.jobOrder[0])
			g.jobOrder = g.jobOrder[1:]
		}
	}
	g.jobOwner[id] = node
	g.mu.Unlock()
}

// jobNode returns the node that accepted job id, or "".
func (g *Gateway) jobNode(id string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jobOwner[id]
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeGatewayError emits the server's JSON error envelope shape from
// the gateway itself (routing failures, body-too-large, bad methods).
func (g *Gateway) writeGatewayError(w http.ResponseWriter, requestID string, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error":     err.Error(),
		"requestId": requestID,
	})
}
