package cluster

import (
	"fmt"
	"net/http"
	"time"

	"prefcover/internal/debugpage"
	"prefcover/internal/slo"
	"prefcover/internal/trace"
	"prefcover/internal/tsdb"
)

// clusterState is the /debug/cluster GET body: ring membership, per-node
// health/load, placement balance, and the gateway's routing maps' sizes.
type clusterState struct {
	Replicas   int                `json:"replicas"`
	VNodes     int                `json:"vnodes"`
	RingNodes  []string           `json:"ringNodes"`
	Nodes      []nodeState        `json:"nodes"`
	LoadShares map[string]float64 `json:"loadShares"`
	StickyKeys int                `json:"stickyKeys"`
	TrackedJbs int                `json:"trackedJobs"`
}

func (g *Gateway) currentState() clusterState {
	g.mu.Lock()
	sticky := g.sticky.Len()
	jobs := g.jobOwner.Len()
	g.mu.Unlock()
	return clusterState{
		Replicas:   g.opts.Replicas,
		VNodes:     g.ring.VNodes(),
		RingNodes:  g.ring.Nodes(),
		Nodes:      g.nodeList(),
		LoadShares: g.ring.LoadShares(0),
		StickyKeys: sticky,
		TrackedJbs: jobs,
	}
}

// handleCluster is the runtime membership control plane:
//
//	GET  /debug/cluster                    -> cluster state JSON
//	POST /debug/cluster?action=drain&node=URL    remove from ring, keep probing
//	POST /debug/cluster?action=undrain&node=URL  restore a drained node
//	POST /debug/cluster?action=join&node=URL     add a brand-new node
//	POST /debug/cluster?action=probe             force an immediate probe round
//
// Draining removes the node from placement and routing but keeps its
// state and probes alive, so an operator can watch it recover (or
// restart it) and undrain without re-describing it. Join both registers
// and ring-adds in one step. Graphs already replicated to a drained
// node stay there; new placements simply skip it.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, g.currentState())
	case http.MethodPost:
		g.handleClusterAction(w, r)
	default:
		g.methodNotAllowed(w, r, http.MethodGet, http.MethodPost)
	}
}

func (g *Gateway) handleClusterAction(w http.ResponseWriter, r *http.Request) {
	action := r.URL.Query().Get("action")
	if action == "probe" {
		g.probeAll()
		writeJSON(w, g.currentState())
		return
	}
	node, err := normalizeNodeURL(r.URL.Query().Get("node"))
	if err != nil {
		debugpage.Error(w, http.StatusBadRequest, err)
		return
	}
	// Draining mirrors ring membership (a known node is off the ring only
	// while drained), so setting it before a ring change that refuses is a
	// no-op.
	switch action {
	case "drain":
		if !g.update(node, func(n *nodeState) { n.Draining = true }) {
			debugpage.Error(w, http.StatusNotFound,
				fmt.Errorf("unknown node %s", node))
			return
		}
		if !g.ring.Remove(node) {
			debugpage.Error(w, http.StatusConflict,
				fmt.Errorf("node %s is already drained", node))
			return
		}
		g.dropStickyTo(node)
	case "undrain":
		if !g.update(node, func(n *nodeState) { n.Draining = false }) {
			debugpage.Error(w, http.StatusNotFound,
				fmt.Errorf("unknown node %s", node))
			return
		}
		if !g.ring.Add(node) {
			debugpage.Error(w, http.StatusConflict,
				fmt.Errorf("node %s is not drained", node))
			return
		}
	case "join":
		g.mu.Lock()
		if g.nodes[node] == nil {
			g.nodes[node] = &nodeState{URL: node}
		}
		g.mu.Unlock()
		if !g.ring.Add(node) {
			debugpage.Error(w, http.StatusConflict,
				fmt.Errorf("node %s is already a member", node))
			return
		}
		// Joining shifts ~1/N of placements onto the new node; cached
		// routes for moved graphs would dodge it forever, so reset them.
		g.mu.Lock()
		g.sticky.Each(func(k, _ string) bool { g.sticky.Remove(k); return true })
		g.mu.Unlock()
		g.probeNode(node)
	default:
		debugpage.Error(w, http.StatusBadRequest,
			fmt.Errorf("unknown action %q (want drain|undrain|join|probe)", action))
		return
	}
	g.updateRingGauges()
	if g.logger != nil {
		g.logger.Info("cluster membership changed", "action", action, "node", node,
			"ring_nodes", g.ring.Len())
	}
	writeJSON(w, g.currentState())
}

// dropStickyTo forgets sticky routes pointing at a node leaving the
// ring. Job ownership is kept: a drained node still answers status polls
// for jobs it accepted.
func (g *Gateway) dropStickyTo(node string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sticky.Each(func(k, n string) bool {
		if n == node {
			g.sticky.Remove(k)
		}
		return true
	})
}

// handleTraces dumps the gateway's flight recorder with the node's
// handler, so ?trace=, ?limit=, ?epoch=unix and Accept negotiation behave
// the same on both; trace.Serve documents them.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	if status, err := trace.Serve(w, r, g.tracer); err != nil {
		debugpage.Error(w, status, err)
	}
}

// handleStatusz renders the one-page cluster dashboard: membership and
// health, and per-node RED stats from the gateway's own metric families
// over the fast SLO window (since boot without federation).
func (g *Gateway) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	st := g.currentState()
	p := debugpage.New("prefcover gateway statusz", "prefcover cluster gateway")
	p.Para(fmt.Sprintf("uptime %s · ring %d nodes · R=%d · %d vnodes/node · %d sticky routes · %d tracked jobs",
		time.Since(g.start).Round(time.Second), len(st.RingNodes), st.Replicas, st.VNodes,
		st.StickyKeys, st.TrackedJbs))

	// With federation on, the Nodes panel carries live rate columns
	// derived from the tsdb snapshot ring: request rate over the fast SLO
	// window plus a sparkline of per-interval rates over the slow window.
	var db *tsdb.DB
	var fastWin, slowWin time.Duration
	if g.monitor != nil {
		db = g.monitor.DB()
		fastWin, slowWin, _ = g.monitor.Windows()
	}

	p.Section("Nodes")
	p.Table("node", "state", "ring share", "graphs", "queue", "running", "in-flight", "req/s", "trend", "last probe", "last error")
	for _, ns := range st.Nodes {
		state, class := "healthy", "ok"
		switch {
		case ns.Draining:
			state, class = "draining", "drain"
		case !ns.Healthy:
			state, class = "unhealthy", "bad"
		}
		share := "-"
		if s, ok := st.LoadShares[ns.URL]; ok {
			share = fmt.Sprintf("%.1f%%", s*100)
		}
		seen := "-"
		if !ns.LastSeen.IsZero() {
			seen = time.Since(ns.LastSeen).Round(time.Millisecond).String() + " ago"
		}
		rate, spark := "-", "-"
		if db != nil {
			match := map[string]string{"node": ns.URL}
			if r, ok := db.RateSum("prefcover_node_http_requests_total", match, fastWin); ok {
				rate = fmt.Sprintf("%.1f/s", r)
			}
			pts := db.RatePoints("prefcover_node_http_requests_total", match, slowWin)
			if len(pts) > 0 {
				vals := make([]float64, len(pts))
				for i, pt := range pts {
					vals[i] = pt.Value
				}
				spark = tsdb.Spark(vals)
			}
		}
		lastErr := ns.LastErr
		if ns.scrapeErr != "" {
			if lastErr != "" {
				lastErr += "; "
			}
			lastErr += "scrape: " + ns.scrapeErr
		}
		p.Row(ns.URL, debugpage.State(class, state), share, ns.Graphs, fmt.Sprintf("%d/%d", ns.QueueDepth, ns.QueueCap),
			ns.Running, ns.InFlight, rate, spark, seen, lastErr)
	}

	older, newer, _, scope := slo.StatusWindow(g.monitor, g.reg.Snapshot(), g.start)
	p.Section(fmt.Sprintf("Forwarded traffic (RED, %s)", scope))
	p.Table("node", "endpoint", "requests", "errors", "p50", "p99")
	ms := func(q float64, buckets []tsdb.SeriesDelta) string {
		if v, ok := tsdb.Quantile(q, buckets); ok {
			return fmt.Sprintf("%.1fms", v*1000)
		}
		return "-"
	}
	for _, row := range tsdb.RED(older, newer, "prefcover_gateway_requests_total", "prefcover_gateway_request_seconds", nil, "node", "endpoint") {
		p.Row(row.Group[0], row.Group[1], int64(row.Requests), int64(row.Errors), ms(0.5, row.Buckets), ms(0.99, row.Buckets))
	}
	p.Links("/metrics", "/debug/cluster", "/debug/slo", "/debug/traces")
	p.Write(w)
}
