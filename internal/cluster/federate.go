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

// Monitor exposes the cluster SLO monitor; nil when federation is off.
func (g *Gateway) Monitor() *slo.Monitor { return g.monitor }

// ScrapeNodes runs one synchronous scrape round outside the monitor's
// loop (tests, /debug/cluster?action=probe follow-ups).
func (g *Gateway) ScrapeNodes() {
	if g.monitor != nil {
		g.monitor.Tick()
	}
}

// scrapeFederated is the cluster monitor's scrape callback: it pulls
// /metrics from every member node concurrently, keeps each result (or
// error) on the node's record, and returns the gateway's full metric
// surface (see snapshot), so the SLO evaluator and /metrics can never
// disagree. It fails only when every node scrape fails — a partial
// cluster still yields a usable aggregate.
func (g *Gateway) scrapeFederated() (*promtext.Metrics, error) {
	errs := g.eachNode(func(url string) error {
		m, err := g.scrapeNode(url)
		outcome, msg := "ok", ""
		if err != nil {
			m, outcome, msg = nil, "error", err.Error()
		}
		g.update(url, func(n *nodeState) { n.scrape, n.scrapeErr = m, msg })
		g.met.scrapes.With(url, outcome).Inc()
		return err
	})
	failed := 0
	var lastErr error
	for _, err := range errs {
		if err != nil {
			failed++
			lastErr = err
		}
	}
	if failed > 0 && failed == len(errs) {
		return nil, fmt.Errorf("cluster: all %d node scrapes failed: %w", failed, lastErr)
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
	req, cancel := apiclient.WithTimeout(req, scrapeTimeout)
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
// the nodes' last scrapes (none while federation is off).
func (g *Gateway) snapshot() *promtext.Metrics {
	return &promtext.Metrics{Families: append(g.reg.Snapshot().Families, g.federatedFamilies()...)}
}

// federatedFamilies assembles the node and cluster families from each
// node's last scrape, read in one copy of the node records. Both views
// come from the same parsed scrapes, which
// makes the differential invariant exact: every prefcover_cluster_*
// sample equals the sum of its prefcover_node_* counterparts.
func (g *Gateway) federatedFamilies() []promtext.Family {
	type agg struct {
		fam     *promtext.Family
		byKey   map[string]int // sample name + labels key -> index in fam.Samples
		anyNaN  map[string]bool
		ordered []string
	}
	nodeFams := make(map[string]*promtext.Family)
	clusterFams := make(map[string]*agg)
	var order []string

	for _, n := range g.nodeList() {
		if n.scrape == nil {
			continue
		}
		for fi := range n.scrape.Families {
			f := &n.scrape.Families[fi]
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
					Labels: s.Labels.With("node", n.URL),
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
