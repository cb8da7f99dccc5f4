package cluster

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prefcover/internal/faults"
	"prefcover/internal/jobs"
	"prefcover/internal/promtext"
	"prefcover/internal/server"
	"prefcover/internal/slo"
	"prefcover/internal/store"
)

// fedFixture boots K real prefcoverd servers plus a federating gateway.
// Probe and scrape intervals are huge so nothing moves between the
// explicit ScrapeNodes calls a test makes — that stillness is what lets
// the differential assertions demand exact equality.
type fedFixture struct {
	servers []*server.Server
	nodeTS  []*httptest.Server
	gw      *Gateway
	gwTS    *httptest.Server
}

func bootFederated(t *testing.T, k int, tune func(*Options)) *fedFixture {
	t.Helper()
	fx := &fedFixture{}
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		srv, err := server.NewWithConfig(server.Config{
			Store: store.Options{Dir: t.TempDir()},
			Jobs:  jobs.Options{Workers: 1, QueueDepth: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		fx.servers = append(fx.servers, srv)
		fx.nodeTS = append(fx.nodeTS, ts)
		urls[i] = ts.URL
	}
	opts := Options{
		Nodes:         urls,
		ProbeInterval: time.Hour,
		SLO:           slo.Config{ScrapeInterval: time.Hour},
	}
	if tune != nil {
		tune(&opts)
	}
	gw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.gw = gw
	fx.gwTS = httptest.NewServer(gw.Handler())
	return fx
}

func (fx *fedFixture) close() {
	fx.gwTS.Close()
	fx.gw.Close()
	for i, ts := range fx.nodeTS {
		ts.Close()
		fx.servers[i].Close()
	}
}

// hit drives n requests straight at a node so its registry moves
// independently of the gateway's forwarding path.
func hit(t *testing.T, base, path string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
}

func scrapeGateway(t *testing.T, url string) *promtext.Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFederationDifferentialExact is the federation contract: on the
// gateway's rendered /metrics, every prefcover_cluster_* sample equals
// the exact float sum of the prefcover_node_* samples it aggregates —
// recomputed here independently from the same wire output.
func TestFederationDifferentialExact(t *testing.T) {
	fx := bootFederated(t, 3, nil)
	defer fx.close()

	// Distinct traffic per node so the sums are non-trivial.
	for i, ts := range fx.nodeTS {
		hit(t, ts.URL, "/v1/solve?variant=i&k=3", 3+2*i)
	}
	fx.gw.ScrapeNodes()
	m := scrapeGateway(t, fx.gwTS.URL)

	// Every node must appear on the federated surface.
	reqs := m.Samples("prefcover_node_http_requests_total")
	for _, ts := range fx.nodeTS {
		found := false
		for _, s := range reqs {
			if v, _ := s.Labels.Get("node"); v == ts.URL {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no prefcover_node_http_requests_total series for node %s", ts.URL)
		}
	}

	// Recompute each cluster family from the node series and compare
	// exactly. Group node samples by (trailing name, labels minus node).
	checked := 0
	for _, f := range m.Families {
		if !strings.HasPrefix(f.Name, clusterPrefix) {
			continue
		}
		rest := strings.TrimPrefix(f.Name, clusterPrefix)
		nf := m.Family(nodePrefix + rest)
		if nf == nil {
			t.Errorf("cluster family %s has no node family", f.Name)
			continue
		}
		sums := make(map[string]float64)
		for _, ns := range nf.Samples {
			key := ns.Name + "\x00" + ns.Labels.Without("node").Key()
			sums[key] += ns.Value
		}
		// Histogram child samples (_bucket/_sum/_count) live in the same
		// family; walk them all.
		for _, cs := range f.Samples {
			key := nodePrefix + strings.TrimPrefix(cs.Name, clusterPrefix) + "\x00" + cs.Labels.Key()
			want, ok := sums[key]
			if !ok {
				t.Errorf("cluster sample %s%v has no node counterparts", cs.Name, cs.Labels)
				continue
			}
			if cs.Value != want {
				t.Errorf("cluster %s%v = %v, node sum = %v", cs.Name, cs.Labels, cs.Value, want)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("differential only covered %d samples — federation surface suspiciously small", checked)
	}

	// The per-node request counters must match each node's own registry
	// exactly: scraping a node's /metrics is not an instrumented /v1
	// endpoint, so nothing moved since the federation snapshot.
	for _, ts := range fx.nodeTS {
		direct := scrapeNodeDirect(t, ts.URL)
		for _, ds := range direct.Samples("prefcover_http_requests_total") {
			var got float64
			found := false
			for _, s := range reqs {
				if v, _ := s.Labels.Get("node"); v != ts.URL {
					continue
				}
				if s.Labels.Without("node").Key() == ds.Labels.Key() {
					got, found = s.Value, true
					break
				}
			}
			if !found || got != ds.Value {
				t.Errorf("node %s series %v: federated %v (found=%v), direct %v",
					ts.URL, ds.Labels, got, found, ds.Value)
			}
		}
	}
}

func scrapeNodeDirect(t *testing.T, url string) *promtext.Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFederationSurvivesNodeScrapeFailure kills one node: its series
// drop off the federated surface, the others keep aggregating, and the
// scrape error lands on statusz.
func TestFederationSurvivesNodeScrapeFailure(t *testing.T) {
	fx := bootFederated(t, 2, nil)
	defer fx.close()

	hit(t, fx.nodeTS[0].URL, "/v1/solve?variant=i&k=3", 2)
	hit(t, fx.nodeTS[1].URL, "/v1/solve?variant=i&k=3", 2)
	fx.gw.ScrapeNodes()

	dead := fx.nodeTS[1].URL
	fx.nodeTS[1].Close()
	fx.gw.ScrapeNodes()
	m := scrapeGateway(t, fx.gwTS.URL)
	for _, s := range m.Samples("prefcover_node_http_requests_total") {
		if v, _ := s.Labels.Get("node"); v == dead {
			t.Fatalf("dead node %s still on the federated surface", dead)
		}
	}
	if len(m.Samples("prefcover_cluster_http_requests_total")) == 0 {
		t.Fatal("cluster aggregates vanished with one node down")
	}
	resp, err := http.Get(fx.gwTS.URL + "/debug/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(page), "scrape:") {
		t.Error("statusz does not surface the scrape error")
	}
}

// TestFederatedMetricsGzip checks the federated /metrics honours
// Accept-Encoding: gzip end to end.
func TestFederatedMetricsGzip(t *testing.T) {
	fx := bootFederated(t, 1, nil)
	defer fx.close()
	hit(t, fx.nodeTS[0].URL, "/v1/solve?variant=i&k=3", 1)
	fx.gw.ScrapeNodes()

	req, _ := http.NewRequest("GET", fx.gwTS.URL+"/metrics", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q", resp.Header.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"prefcover_node_http_requests_total", "prefcover_cluster_http_requests_total", "prefcover_gateway_ring_nodes"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("gzipped federated /metrics missing %s", want)
		}
	}
}

// TestClusterSLOAlertLifecycle runs a cluster-level availability SLO
// against real nodes: one node starts injecting 500s, the gateway's
// federated evaluator sees the cluster error ratio burn through the
// budget and fires, then resolves once the faults are disarmed.
func TestClusterSLOAlertLifecycle(t *testing.T) {
	fx := bootFederated(t, 2, func(o *Options) {
		o.SLO.Spec = mustSpec(t, "avail:/v1/solve:99")
		o.SLO.FastWindow = 100 * time.Millisecond
		o.SLO.SlowWindow = 200 * time.Millisecond
		o.SLO.ForDuration = time.Nanosecond
	})
	defer fx.close()
	if fx.gw.Monitor() == nil {
		t.Fatal("SLO options must enable the monitor")
	}

	spec, err := faults.ParseSpec("seed=3,error=1.0")
	if err != nil {
		t.Fatal(err)
	}
	fx.servers[0].SetFaults(faults.New(spec))

	state := func() slo.State {
		st := fx.gw.Monitor().Status()
		if len(st.Alerts) != 1 {
			t.Fatalf("alerts = %+v", st.Alerts)
		}
		return st.Alerts[0].State
	}
	deadline := time.Now().Add(10 * time.Second)
	for state() != slo.StateFiring {
		if time.Now().After(deadline) {
			t.Fatalf("cluster alert never fired; status %+v", fx.gw.Monitor().Status())
		}
		hit(t, fx.nodeTS[0].URL, "/v1/solve?variant=i&k=3", 10)
		hit(t, fx.nodeTS[1].URL, "/v1/solve?variant=i&k=3", 2)
		time.Sleep(5 * time.Millisecond)
		fx.gw.ScrapeNodes()
	}

	// The gateway's own /metrics carries the cluster ALERTS series.
	resp, err := http.Get(fx.gwTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body),
		`ALERTS{alertname="avail_burn",endpoint="/v1/solve",severity="critical",state="firing"} 1`) {
		t.Fatal("gateway /metrics missing the firing ALERTS series")
	}

	fx.servers[0].SetFaults(nil)
	deadline = time.Now().Add(10 * time.Second)
	for state() != slo.StateResolved {
		if time.Now().After(deadline) {
			t.Fatalf("cluster alert never resolved; status %+v", fx.gw.Monitor().Status())
		}
		hit(t, fx.nodeTS[0].URL, "/v1/solve?variant=i&k=3", 10)
		hit(t, fx.nodeTS[1].URL, "/v1/solve?variant=i&k=3", 10)
		time.Sleep(5 * time.Millisecond)
		fx.gw.ScrapeNodes()
	}
}

// TestStatuszRateColumns checks the tsdb-derived columns appear once
// the ring has enough history for windowed rates.
func TestStatuszRateColumns(t *testing.T) {
	fx := bootFederated(t, 1, nil)
	defer fx.close()

	for i := 0; i < 4; i++ {
		hit(t, fx.nodeTS[0].URL, "/v1/solve?variant=i&k=3", 5)
		time.Sleep(5 * time.Millisecond)
		fx.gw.ScrapeNodes()
	}
	resp, err := http.Get(fx.gwTS.URL + "/debug/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	for _, want := range []string{"<th>req/s</th>", "<th>trend</th>", "/s</td>"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("statusz missing %q", want)
		}
	}
	if !strings.ContainsAny(string(page), "▁▂▃▄▅▆▇█") {
		t.Error("statusz has no sparkline runes")
	}
}

func mustSpec(t *testing.T, text string) slo.Spec {
	t.Helper()
	s, err := slo.ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
