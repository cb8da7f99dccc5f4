package cluster

import (
	"fmt"
	"html"
	"net/http"
	"strings"
	"time"

	"prefcover/internal/promtext"
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
	Nodes      []nodeSnapshot     `json:"nodes"`
	LoadShares map[string]float64 `json:"loadShares"`
	StickyKeys int                `json:"stickyKeys"`
	TrackedJbs int                `json:"trackedJobs"`
}

func (g *Gateway) currentState() clusterState {
	g.mu.Lock()
	sticky := len(g.sticky)
	jobs := len(g.jobOwner)
	g.mu.Unlock()
	return clusterState{
		Replicas:   g.opts.Replicas,
		VNodes:     g.ring.VNodes(),
		RingNodes:  g.ring.Nodes(),
		Nodes:      g.snapshots(),
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
		g.writeGatewayError(w, r.Header.Get("X-Request-ID"), http.StatusBadRequest, err)
		return
	}
	switch action {
	case "drain":
		if g.state(node) == nil {
			g.writeGatewayError(w, r.Header.Get("X-Request-ID"), http.StatusNotFound,
				fmt.Errorf("unknown node %s", node))
			return
		}
		if !g.ring.Remove(node) {
			g.writeGatewayError(w, r.Header.Get("X-Request-ID"), http.StatusConflict,
				fmt.Errorf("node %s is already drained", node))
			return
		}
		g.setDraining(node, true)
		g.dropStickyTo(node)
	case "undrain":
		ns := g.state(node)
		if ns == nil {
			g.writeGatewayError(w, r.Header.Get("X-Request-ID"), http.StatusNotFound,
				fmt.Errorf("unknown node %s", node))
			return
		}
		if !g.ring.Add(node) {
			g.writeGatewayError(w, r.Header.Get("X-Request-ID"), http.StatusConflict,
				fmt.Errorf("node %s is not drained", node))
			return
		}
		g.setDraining(node, false)
	case "join":
		g.mu.Lock()
		if g.nodes[node] == nil {
			g.nodes[node] = &nodeState{healthy: false}
		}
		g.mu.Unlock()
		if !g.ring.Add(node) {
			g.writeGatewayError(w, r.Header.Get("X-Request-ID"), http.StatusConflict,
				fmt.Errorf("node %s is already a member", node))
			return
		}
		// Joining shifts ~1/N of placements onto the new node; cached
		// routes for moved graphs would dodge it forever, so reset them.
		g.mu.Lock()
		g.sticky = make(map[string]string)
		g.mu.Unlock()
		g.probeNode(node)
	default:
		g.writeGatewayError(w, r.Header.Get("X-Request-ID"), http.StatusBadRequest,
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

func (g *Gateway) setDraining(node string, draining bool) {
	if ns := g.state(node); ns != nil {
		ns.mu.Lock()
		ns.draining = draining
		ns.mu.Unlock()
	}
}

// dropStickyTo forgets sticky routes pointing at a node leaving the
// ring. Job ownership is kept: a drained node still answers status polls
// for jobs it accepted.
func (g *Gateway) dropStickyTo(node string) {
	g.mu.Lock()
	for k, n := range g.sticky {
		if n == node {
			delete(g.sticky, k)
		}
	}
	g.mu.Unlock()
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
		g.writeGatewayError(w, r.Header.Get("X-Request-ID"), status, err)
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
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><title>prefcover gateway statusz</title>
<style>
body{font-family:sans-serif;margin:2em;color:#222}
table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #ccc;padding:4px 10px;text-align:left;font-size:14px}
th{background:#f3f3f3}
h1{font-size:22px}h2{font-size:17px;margin-top:1.6em}
.ok{color:#070}.bad{color:#b00}.drain{color:#a60}
small{color:#777}
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>prefcover cluster gateway</h1>\n")
	fmt.Fprintf(&b, "<p>uptime %s · ring %d nodes · R=%d · %d vnodes/node · %d sticky routes · %d tracked jobs</p>\n",
		time.Since(g.start).Round(time.Second), len(st.RingNodes), st.Replicas, st.VNodes,
		st.StickyKeys, st.TrackedJbs)

	// With federation on, the Nodes panel carries live rate columns
	// derived from the tsdb snapshot ring: request rate over the fast SLO
	// window plus a sparkline of per-interval rates over the slow window.
	var db *tsdb.DB
	var fastWin, slowWin time.Duration
	if g.monitor != nil {
		db = g.monitor.DB()
		fastWin, slowWin, _ = g.monitor.Windows()
	}
	scrapeErrs := g.scrapeErrors()

	b.WriteString("<h2>Nodes</h2>\n<table><tr><th>node</th><th>state</th><th>ring share</th><th>graphs</th><th>queue</th><th>running</th><th>in-flight</th><th>req/s</th><th>trend</th><th>last probe</th><th>last error</th></tr>\n")
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
				for i, p := range pts {
					vals[i] = p.Value
				}
				spark = tsdb.Spark(vals)
			}
		}
		lastErr := ns.LastErr
		if e := scrapeErrs[ns.URL]; e != "" {
			if lastErr != "" {
				lastErr += "; "
			}
			lastErr += "scrape: " + e
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td class=%q>%s</td><td>%s</td><td>%d</td><td>%d/%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td><small>%s</small></td></tr>\n",
			html.EscapeString(ns.URL), class, state, share, ns.Graphs,
			ns.QueueDepth, ns.QueueCap, ns.Running, ns.InFlight,
			rate, spark, seen, html.EscapeString(lastErr))
	}
	b.WriteString("</table>\n")

	older, newer, _, scope := slo.StatusWindow(g.monitor, g.reg, g.start)
	fmt.Fprintf(&b, "<h2>Forwarded traffic (RED, %s)</h2>\n<table><tr><th>node</th><th>endpoint</th><th>requests</th><th>p50</th><th>p99</th></tr>\n", scope)
	type redRow struct {
		node, endpoint string
		count          float64
		buckets        []tsdb.SeriesDelta
	}
	byKey := make(map[string]*redRow)
	var rows []*redRow
	row := func(ls promtext.Labels) *redRow {
		node, _ := ls.Get("node")
		endpoint, _ := ls.Get("endpoint")
		r := byKey[node+"\x00"+endpoint]
		if r == nil {
			r = &redRow{node: node, endpoint: endpoint}
			byKey[node+"\x00"+endpoint] = r
			rows = append(rows, r)
		}
		return r
	}
	for _, d := range tsdb.Delta(older, newer, "prefcover_gateway_request_seconds_count", nil) {
		row(d.Labels).count = d.Increase
	}
	for _, d := range tsdb.Delta(older, newer, "prefcover_gateway_request_seconds_bucket", nil) {
		r := row(d.Labels)
		r.buckets = append(r.buckets, d)
	}
	ms := func(q float64, buckets []tsdb.SeriesDelta) string {
		if v, ok := tsdb.Quantile(q, buckets); ok {
			return fmt.Sprintf("%.1fms", v*1000)
		}
		return "-"
	}
	for _, r := range rows { // snapshot order: sorted by node, then endpoint
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%.0f</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(r.node), html.EscapeString(r.endpoint),
			r.count, ms(0.5, r.buckets), ms(0.99, r.buckets))
	}
	b.WriteString("</table>\n")

	b.WriteString(`<p><a href="/metrics">/metrics</a> · <a href="/debug/cluster">/debug/cluster</a> · <a href="/debug/slo">/debug/slo</a> · <a href="/debug/traces">/debug/traces</a></p>`)
	b.WriteString("</body></html>\n")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
