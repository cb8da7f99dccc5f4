package cluster

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"prefcover/internal/apiclient"
	"prefcover/internal/promtext"
)

// nodeState is the gateway's one record of a backend, held in g.nodes:
// the readiness probe's verdict and the load the node reported on
// /readyz, degraded at once by a failed forward (a node that just dropped
// a connection should not wait a probe interval to stop receiving
// traffic), and the node's last /metrics scrape with its error.
// Gateway.mu guards it; readers take copies (nodeList). The exported
// fields are the node's /debug/cluster entry.
type nodeState struct {
	URL      string    `json:"url"`
	Healthy  bool      `json:"healthy"`
	Draining bool      `json:"draining"`
	LastErr  string    `json:"lastError,omitempty"`
	LastSeen time.Time `json:"lastSeen,omitempty"`
	apiclient.Load

	scrape    *promtext.Metrics // nil before the first scrape and after a failed one
	scrapeErr string
}

// load is the least-loaded routing score: work the node is already
// committed to. Lower routes sooner.
func (n nodeState) load() int { return n.QueueDepth + n.Running + n.InFlight }

// nodeList copies every known node's record, sorted by URL.
func (g *Gateway) nodeList() []nodeState {
	g.mu.Lock()
	out := make([]nodeState, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, *n)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// update applies fn to url's record under g.mu; false for an unknown node.
// fn only reads and sets fields.
func (g *Gateway) update(url string, fn func(*nodeState)) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.nodes[url]
	if n != nil {
		fn(n)
	}
	return n != nil
}

// eachNode calls fn for every known node (drained ones included) at once,
// waits for all of them, and returns fn's errors in URL order. The
// readiness prober and the federation scrape both walk the nodes with it.
func (g *Gateway) eachNode(fn func(url string) error) []error {
	nodes := g.nodeList()
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			errs[i] = fn(url)
		}(i, n.URL)
	}
	wg.Wait()
	return errs
}

// probeLoop drives readiness probes for every known node (drained ones
// included, so an operator can watch a drained node recover before
// undraining it) until stop is closed.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	ticker := time.NewTicker(g.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-ticker.C:
			g.probeAll()
		}
	}
}

// probeAll probes every known node once, concurrently.
func (g *Gateway) probeAll() {
	g.eachNode(func(url string) error {
		g.probeNode(url)
		return nil
	})
	g.updateRingGauges()
}

// probeNode performs one readiness probe and folds the result into the
// node's record.
func (g *Gateway) probeNode(url string) {
	req, err := http.NewRequest(http.MethodGet, url+"/readyz", nil)
	if err != nil {
		g.setProbeResult(url, "error", "bad probe url: "+err.Error(), nil)
		return
	}
	req, cancel := apiclient.WithTimeout(req, g.opts.ProbeTimeout)
	defer cancel()
	resp, err := g.client.Do(req)
	if err != nil {
		g.setProbeResult(url, "error", err.Error(), nil)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	// The body decodes on both 200 and 503 (saturated nodes still report
	// their load); a decode failure leaves the previous load numbers.
	rb := new(apiclient.Ready)
	if json.Unmarshal(body, rb) != nil {
		rb = nil
	}
	if resp.StatusCode == http.StatusOK {
		g.setProbeResult(url, "ready", "", rb)
	} else {
		g.setProbeResult(url, "unready", "readiness probe: "+resp.Status, rb)
	}
}

// setProbeResult records one probe outcome (ready, unready or error):
// only a ready node is healthy.
func (g *Gateway) setProbeResult(url, outcome, errMsg string, rb *apiclient.Ready) {
	healthy, wasHealthy := outcome == "ready", false
	g.update(url, func(n *nodeState) {
		wasHealthy = n.Healthy
		n.Healthy, n.LastErr, n.LastSeen = healthy, errMsg, time.Now()
		if rb != nil {
			n.Load = rb.Load
		}
	})
	g.met.probes.With(url, outcome).Inc()
	if healthy {
		g.met.nodeHealthy.With(url).Set(1)
	} else {
		g.met.nodeHealthy.With(url).Set(0)
	}
	if wasHealthy != healthy && g.logger != nil {
		lvl := slog.LevelWarn
		verdict := "unhealthy"
		if healthy {
			lvl = slog.LevelInfo
			verdict = "healthy"
		}
		g.logger.LogAttrs(context.Background(), lvl, "node health changed",
			slog.String("node", url),
			slog.String("state", verdict),
			slog.String("error", errMsg),
		)
	}
}

// markFailure degrades a node immediately after a failed forward attempt:
// routing prefers other replicas until the next successful probe restores
// it. kind is "transport" or "status".
func (g *Gateway) markFailure(url, kind string, err error) {
	g.met.nodeFailures.With(url, kind).Inc()
	if g.update(url, func(n *nodeState) { n.Healthy, n.LastErr = false, err.Error() }) {
		g.met.nodeHealthy.With(url).Set(0)
	}
}

func (g *Gateway) updateRingGauges() {
	g.met.ringNodes.With().Set(int64(g.ring.Len()))
}
