package cluster

// Metrics federation: the gateway periodically scrapes every member
// node's /metrics, re-exports each node's families under
// prefcover_node_*{node="..."} and publishes exact cluster-wide sums as
// prefcover_cluster_*, all from one locked snapshot so the aggregate
// always equals the sum of the per-node series it was derived from. The
// gateway's /metrics and its cluster-level SLO monitor (/debug/slo, the
// statusz rate/sparkline columns) read the same combined snapshot.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"prefcover/internal/apiclient"
	"prefcover/internal/promtext"
	"prefcover/internal/slo"
)

// nodePrefix/clusterPrefix rename a node's prefcover_* families on the
// federated surface; families without the prefcover_ prefix (runtime
// internals, a node's own ALERTS) are not federated.
const (
	localPrefix   = "prefcover_"
	nodePrefix    = "prefcover_node_"
	clusterPrefix = "prefcover_cluster_"
)

// federation is the gateway's scrape state: the latest parsed snapshot
// per node plus the last scrape error, both keyed by node URL.
type federation struct {
	mu    sync.RWMutex
	nodes map[string]*promtext.Metrics
	errs  map[string]string
}

// federationEnabled reports whether any knob asks for the scrape loop.
func (o Options) federationEnabled() bool {
	return o.ScrapeInterval > 0 || o.SLO.Enabled()
}

// newMonitor builds the gateway's cluster-level SLO monitor. Its scrape
// callback pulls every node, refreshes the federation snapshot, and
// returns the snapshot the gateway's /metrics renders — so the SLO
// evaluator and the wire format can never disagree.
func (g *Gateway) newMonitor() *slo.Monitor {
	var notifier slo.Notifier
	if g.opts.AlertWebhook != "" {
		notifier = &slo.WebhookNotifier{URL: g.opts.AlertWebhook}
	}
	return slo.NewMonitor(slo.MonitorOptions{
		Spec:     g.opts.SLO,
		Scrape:   g.scrapeFederated,
		Interval: g.opts.ScrapeInterval,
		Eval: slo.EvalConfig{
			FastWindow:     g.opts.SLOFastWindow,
			SlowWindow:     g.opts.SLOSlowWindow,
			RequestsMetric: clusterPrefix + "http_requests_total",
			LatencyMetric:  clusterPrefix + "http_request_duration_seconds",
		},
		ForDuration: g.opts.SLOForDuration,
		Alerts:      g.met.alerts,
		Logger:      g.logger,
		Notifier:    notifier,
	})
}

// Monitor exposes the cluster SLO monitor; nil when federation is off.
func (g *Gateway) Monitor() *slo.Monitor { return g.monitor }

// ScrapeNodes runs one synchronous scrape round outside the monitor's
// loop (tests, /debug/cluster?action=probe follow-ups).
func (g *Gateway) ScrapeNodes() {
	if g.monitor != nil {
		g.monitor.Tick()
	}
}

// scrapeFederated pulls /metrics from every member node concurrently,
// folds the results into the federation snapshot, and returns the full
// federated view (see snapshot). It fails only when every node scrape
// fails — a partial cluster still yields a usable aggregate.
func (g *Gateway) scrapeFederated() (*promtext.Metrics, error) {
	g.mu.Lock()
	urls := make([]string, 0, len(g.nodes))
	for u := range g.nodes {
		urls = append(urls, u)
	}
	g.mu.Unlock()
	sort.Strings(urls)

	type result struct {
		url string
		m   *promtext.Metrics
		err error
	}
	results := make([]result, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			m, err := g.scrapeNode(u)
			results[i] = result{url: u, m: m, err: err}
		}(i, u)
	}
	wg.Wait()

	g.fed.mu.Lock()
	// Rebuild rather than patch: nodes that left the membership drop out
	// of the federated surface on the next round.
	g.fed.nodes = make(map[string]*promtext.Metrics, len(results))
	g.fed.errs = make(map[string]string)
	okCount := 0
	var lastErr error
	for _, res := range results {
		if res.err != nil {
			g.fed.errs[res.url] = res.err.Error()
			g.met.scrapes.With(res.url, "error").Inc()
			lastErr = res.err
			continue
		}
		g.fed.nodes[res.url] = res.m
		g.met.scrapes.With(res.url, "ok").Inc()
		okCount++
	}
	g.fed.mu.Unlock()

	if okCount == 0 && len(urls) > 0 {
		return nil, fmt.Errorf("cluster: all %d node scrapes failed: %w", len(urls), lastErr)
	}
	return g.snapshot(), nil
}

// scrapeNode fetches and parses one node's /metrics. The transport's
// transparent gzip negotiation applies, so large registries travel
// compressed without any handling here.
func (g *Gateway) scrapeNode(url string) (*promtext.Metrics, error) {
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req, cancel := apiclient.WithTimeout(req, g.opts.ScrapeTimeout)
	defer cancel()
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("scrape %s/metrics: %s", url, resp.Status)
	}
	return promtext.Parse(resp.Body)
}

// snapshot reads the gateway's complete metric surface: its own registry
// first, then the per-node re-exports and cluster aggregates derived from
// the latest federation snapshot (none while federation is off).
func (g *Gateway) snapshot() *promtext.Metrics {
	return &promtext.Metrics{Families: append(g.reg.Snapshot().Families, g.federatedFamilies()...)}
}

// federatedFamilies assembles the node and cluster families from the
// latest snapshot. Both views come from the same parsed scrapes, which
// makes the differential invariant exact: every prefcover_cluster_*
// sample equals the sum of its prefcover_node_* counterparts.
func (g *Gateway) federatedFamilies() []promtext.Family {
	g.fed.mu.RLock()
	urls := make([]string, 0, len(g.fed.nodes))
	for u := range g.fed.nodes {
		urls = append(urls, u)
	}
	snaps := make(map[string]*promtext.Metrics, len(g.fed.nodes))
	for u, m := range g.fed.nodes {
		snaps[u] = m
	}
	g.fed.mu.RUnlock()
	sort.Strings(urls)

	type agg struct {
		fam     *promtext.Family
		byKey   map[string]int // sample name + labels key -> index in fam.Samples
		anyNaN  map[string]bool
		ordered []string
	}
	nodeFams := make(map[string]*promtext.Family)
	clusterFams := make(map[string]*agg)
	var order []string

	for _, url := range urls {
		for fi := range snaps[url].Families {
			f := &snaps[url].Families[fi]
			if !strings.HasPrefix(f.Name, localPrefix) {
				continue
			}
			rest := strings.TrimPrefix(f.Name, localPrefix)

			nf := nodeFams[nodePrefix+rest]
			if nf == nil {
				nf = &promtext.Family{
					Name: nodePrefix + rest,
					Help: f.Help + " (per node)",
					Type: f.Type,
				}
				nodeFams[nf.Name] = nf
				order = append(order, nf.Name)
			}
			cf := clusterFams[clusterPrefix+rest]
			if cf == nil {
				cf = &agg{
					fam: &promtext.Family{
						Name: clusterPrefix + rest,
						Help: f.Help + " (cluster sum)",
						Type: f.Type,
					},
					byKey:  make(map[string]int),
					anyNaN: make(map[string]bool),
				}
				clusterFams[cf.fam.Name] = cf
				order = append(order, cf.fam.Name)
			}

			for _, s := range f.Samples {
				sampleRest := strings.TrimPrefix(s.Name, localPrefix)
				nf.Samples = append(nf.Samples, promtext.Sample{
					Name:   nodePrefix + sampleRest,
					Labels: s.Labels.With("node", url),
					Value:  s.Value,
				})
				key := sampleRest + "\x00" + s.Labels.Key()
				if s.Value != s.Value { // NaN would poison the sum
					cf.anyNaN[key] = true
					continue
				}
				if i, ok := cf.byKey[key]; ok {
					cf.fam.Samples[i].Value += s.Value
				} else {
					cf.byKey[key] = len(cf.fam.Samples)
					cf.fam.Samples = append(cf.fam.Samples, promtext.Sample{
						Name:   clusterPrefix + sampleRest,
						Labels: s.Labels,
						Value:  s.Value,
					})
				}
			}
		}
	}

	sort.Strings(order)
	out := make([]promtext.Family, 0, len(order))
	for _, name := range order {
		if nf := nodeFams[name]; nf != nil {
			out = append(out, *nf)
			continue
		}
		cf := clusterFams[name]
		// Drop aggregate series any node reported as NaN: a sum that
		// silently omits one member's contribution would break the
		// node-vs-cluster differential.
		kept := cf.fam.Samples[:0]
		for _, s := range cf.fam.Samples {
			key := strings.TrimPrefix(s.Name, clusterPrefix) + "\x00" + s.Labels.Key()
			if !cf.anyNaN[key] {
				kept = append(kept, s)
			}
		}
		cf.fam.Samples = kept
		if len(cf.fam.Samples) > 0 {
			out = append(out, *cf.fam)
		}
	}
	return out
}

// scrapeErrors returns the last scrape error per node (statusz).
func (g *Gateway) scrapeErrors() map[string]string {
	g.fed.mu.RLock()
	defer g.fed.mu.RUnlock()
	out := make(map[string]string, len(g.fed.errs))
	for u, e := range g.fed.errs {
		out[u] = e
	}
	return out
}
