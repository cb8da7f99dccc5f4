package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"prefcover"
	"prefcover/internal/apiclient"
	"prefcover/internal/graphtest"
	"prefcover/internal/trace"
)

func TestNormalizeNodeURL(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"http://a:7070", "http://a:7070", true},
		{"https://a:7070/", "https://a:7070", true},
		{"a:7070", "http://a:7070", true},
		{" 10.0.0.1:7070 ", "http://10.0.0.1:7070", true},
		{"", "", false},
		{"ftp://a:7070", "", false},
		{"http://a:7070/path", "", false},
	}
	for _, c := range cases {
		got, err := normalizeNodeURL(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("normalizeNodeURL(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("normalizeNodeURL(%q) accepted, want error", c.in)
		}
	}
}

func TestNewRejectsEmptyAndDuplicateNodes(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New with no nodes should fail")
	}
	if _, err := New(Options{Nodes: []string{"http://a:1", "a:1"}}); err == nil {
		t.Error("New with duplicate nodes should fail")
	}
}

// The control-plane surface, against a live 3-node cluster: state JSON,
// drain/undrain/join validation, gateway readiness, and the metrics and
// statusz pages carrying the cluster families.
func TestGatewayControlPlane(t *testing.T) {
	fx := bootCluster(t, 3)
	defer fx.close()
	gwURL := fx.harness.GatewayURL()
	client := http.DefaultClient

	resp, body := doGW(t, client, http.MethodGet, gwURL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway /readyz = %d (%s)", resp.StatusCode, body)
	}

	resp, body = doGW(t, client, http.MethodGet, gwURL+"/debug/cluster", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/cluster = %d", resp.StatusCode)
	}
	var st clusterState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.RingNodes) != 3 || st.Replicas != 2 || len(st.Nodes) != 3 {
		t.Fatalf("cluster state: ring=%d replicas=%d nodes=%d", len(st.RingNodes), st.Replicas, len(st.Nodes))
	}
	for _, ns := range st.Nodes {
		if !ns.Healthy {
			t.Errorf("node %s unhealthy in a fresh cluster: %s", ns.URL, ns.LastErr)
		}
	}

	// Action validation.
	for _, bad := range []string{
		"?action=drain&node=http://unknown:1",
		"?action=nonsense&node=" + st.RingNodes[0],
		"?action=drain&node=ftp://x",
	} {
		resp, _ := doGW(t, client, http.MethodPost, gwURL+"/debug/cluster"+bad, nil)
		if resp.StatusCode < 400 {
			t.Errorf("POST /debug/cluster%s = %d, want an error", bad, resp.StatusCode)
		}
	}

	// Drain is idempotence-checked, undrain restores.
	victim := st.RingNodes[0]
	resp, _ = doGW(t, client, http.MethodPost, gwURL+"/debug/cluster?action=drain&node="+victim, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d", resp.StatusCode)
	}
	if fx.gw.Ring().Contains(victim) {
		t.Fatal("drained node still on the ring")
	}
	resp, _ = doGW(t, client, http.MethodPost, gwURL+"/debug/cluster?action=drain&node="+victim, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double drain = %d, want 409", resp.StatusCode)
	}
	resp, _ = doGW(t, client, http.MethodPost, gwURL+"/debug/cluster?action=undrain&node="+victim, nil)
	if resp.StatusCode != http.StatusOK || !fx.gw.Ring().Contains(victim) {
		t.Fatalf("undrain = %d, on ring: %v", resp.StatusCode, fx.gw.Ring().Contains(victim))
	}

	// The metric families the dashboards scrape must be exposed.
	resp, body = doGW(t, client, http.MethodGet, gwURL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, family := range []string{
		"prefcover_gateway_ring_nodes",
		"prefcover_gateway_node_healthy",
		"prefcover_gateway_probes_total",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	resp, body = doGW(t, client, http.MethodGet, gwURL+"/debug/statusz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "prefcover cluster gateway") {
		t.Fatalf("/debug/statusz = %d", resp.StatusCode)
	}
	for _, ns := range st.Nodes {
		if !strings.Contains(string(body), ns.URL) {
			t.Errorf("statusz does not list node %s", ns.URL)
		}
	}
}

// A node joined at runtime starts taking placements: after join the ring
// has K+1 members and ~1/(K+1) of fresh placements land on it.
func TestGatewayJoin(t *testing.T) {
	fx := bootCluster(t, 3)
	defer fx.close()
	gwURL := fx.harness.GatewayURL()

	// Boot a 4th node out-of-band and join it through the gateway.
	extraFx := bootCluster(t, 1)
	defer extraFx.close()
	extra := extraFx.harness.NodeURLs()[0]

	resp, body := doGW(t, http.DefaultClient, http.MethodPost,
		gwURL+"/debug/cluster?action=join&node="+extra, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join = %d (%s)", resp.StatusCode, body)
	}
	if fx.gw.Ring().Len() != 4 {
		t.Fatalf("ring has %d nodes after join, want 4", fx.gw.Ring().Len())
	}
	shares := fx.gw.Ring().LoadShares(4096)
	if s := shares[extra]; s < 0.10 || s > 0.45 {
		t.Errorf("joined node holds %.3f of placements, want ~0.25", s)
	}
	resp, _ = doGW(t, http.DefaultClient, http.MethodPost,
		gwURL+"/debug/cluster?action=join&node="+extra, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double join = %d, want 409", resp.StatusCode)
	}
}

// The gateway's /debug/traces answers the query a distributed-trace client
// sends (prefcover remote -trace): ?trace=<id> keeps only that trace's
// spans and ?epoch=unix stamps them in absolute Unix-epoch microseconds,
// so they merge onto the client's own timeline.
func TestGatewayTracesQuery(t *testing.T) {
	fx := bootCluster(t, 2)
	defer fx.close()
	gwURL := fx.harness.GatewayURL()
	const clicks = `{"id":"s1","purchase":"silver","clicks":["gold"]}
{"id":"s2","purchase":"gold","clicks":["silver"]}
`
	before := float64(time.Now().UnixMicro())
	var ids []string
	for i := 0; i < 2; i++ {
		tp := apiclient.NewTraceparent(true)
		sc, err := trace.ParseTraceparent(tp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sc.TraceID)
		req, err := http.NewRequest(http.MethodPost, gwURL+"/v1/pipeline?k=1", strings.NewReader(clicks))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(trace.TraceparentHeader, tp)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pipeline %d through gateway = %d (%s)", i, resp.StatusCode, body)
		}
	}
	after := float64(time.Now().UnixMicro())

	resp, body := doGW(t, http.DefaultClient, http.MethodGet, gwURL+"/debug/traces?trace="+ids[0]+"&epoch=unix", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces = %d (%s)", resp.StatusCode, body)
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("/debug/traces is not Chrome JSON: %v\n%s", err, body)
	}
	if len(events) == 0 {
		t.Fatalf("no events for trace %s:\n%s", ids[0], body)
	}
	for _, ev := range events {
		if got := ev.Args["traceID"]; got != ids[0] {
			t.Errorf("event %q has trace %v, want only %s", ev.Name, got, ids[0])
		}
		if ev.TS < before || ev.TS > after {
			t.Errorf("event %q at ts %.0f, want Unix-epoch µs in [%.0f, %.0f]", ev.Name, ev.TS, before, after)
		}
	}

	// The text tree and the 406 for an unservable Accept come from the
	// same handler as a node's.
	req, _ := http.NewRequest(http.MethodGet, gwURL+"/debug/traces?format=tree&trace="+ids[1], nil)
	tree, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(tree.Body)
	tree.Body.Close()
	if !strings.Contains(string(text), ids[1]) || strings.Contains(string(text), ids[0]) {
		t.Errorf("tree for trace %s:\n%s", ids[1], text)
	}
	req, _ = http.NewRequest(http.MethodGet, gwURL+"/debug/traces", nil)
	req.Header.Set("Accept", "image/png")
	png, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	png.Body.Close()
	if png.StatusCode != http.StatusNotAcceptable {
		t.Errorf("Accept image/png = %d, want 406", png.StatusCode)
	}
}

// TestGatewayRequestID: the gateway resolves one X-Request-ID per inbound
// request with the node's policy. Errors the gateway writes itself name
// it, an unusable inbound ID is replaced rather than echoed, and a
// relayed response carries the ID exactly once.
func TestGatewayRequestID(t *testing.T) {
	fx := bootFederated(t, 1, func(o *Options) { o.SLO.ScrapeInterval = 0 })
	defer fx.close()
	do := func(method, path, id string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(method, fx.gwTS.URL+path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			RequestID string `json:"requestId"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp, body.RequestID
	}
	for _, inbound := range []string{"", strings.Repeat("a", 300), `quote"d`, `back\slash`} {
		resp, bodyID := do(http.MethodPatch, "/v1/solve", inbound)
		ids := resp.Header.Values("X-Request-ID")
		if resp.StatusCode != http.StatusMethodNotAllowed || len(ids) != 1 || len(ids[0]) != 16 || bodyID != ids[0] {
			t.Errorf("PATCH with X-Request-ID %.20q: status %d, header %q, body requestId %q; want 405 and one fresh 16-hex ID in both",
				inbound, resp.StatusCode, ids, bodyID)
		}
	}
	resp, bodyID := do(http.MethodPost, "/v1/solve?variant=i&k=3", "client-id-1")
	if ids := resp.Header.Values("X-Request-ID"); len(ids) != 1 || ids[0] != "client-id-1" || bodyID != "client-id-1" {
		t.Errorf("forwarded solve: X-Request-ID %q, body requestId %q; want client-id-1 once", ids, bodyID)
	}
	// The SLO page's errors are the same envelope, naming the same ID.
	resp, bodyID = do(http.MethodPost, "/debug/slo", "client-id-2")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Content-Type") != "application/json" || bodyID != "client-id-2" {
		t.Errorf("POST /debug/slo: %d %q, body requestId %q; want 405 application/json naming client-id-2",
			resp.StatusCode, resp.Header.Get("Content-Type"), bodyID)
	}
}

// TestWireFieldNames pins the JSON field names of a node's /readyz and
// the gateway's /debug/cluster, which scripts and dashboards read.
func TestWireFieldNames(t *testing.T) {
	fx := bootCluster(t, 2)
	defer fx.close()
	keys := func(m map[string]any) string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	get := func(url string, v any) {
		t.Helper()
		_, body := doGW(t, http.DefaultClient, http.MethodGet, url, nil)
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v (%s)", url, err, body)
		}
	}
	var ready map[string]any
	get(fx.harness.NodeURLs()[0]+"/readyz", &ready)
	if got, want := keys(ready), "graphs,inFlight,queueCap,queueDepth,running,status"; got != want {
		t.Errorf("node /readyz fields %s, want %s", got, want)
	}
	var st struct {
		Nodes []map[string]any `json:"nodes"`
	}
	var top map[string]any
	get(fx.harness.GatewayURL()+"/debug/cluster", &top)
	get(fx.harness.GatewayURL()+"/debug/cluster", &st)
	if got, want := keys(top), "loadShares,nodes,replicas,ringNodes,stickyKeys,trackedJobs,vnodes"; got != want {
		t.Errorf("/debug/cluster fields %s, want %s", got, want)
	}
	for _, n := range st.Nodes {
		delete(n, "lastError") // present only while the node has one
		if got, want := keys(n), "draining,graphs,healthy,inFlight,lastSeen,queueCap,queueDepth,running,url"; got != want {
			t.Errorf("/debug/cluster node fields %s, want %s", got, want)
		}
	}
}

// TestRelayCarriesContentLength: a solve answer of about 114 KiB, by
// reference and inline, reaches the client through the gateway with its
// Content-Length, not chunked.
func TestRelayCarriesContentLength(t *testing.T) {
	fx := bootCluster(t, 2)
	defer fx.close()
	var graph bytes.Buffer
	if err := prefcover.WriteGraphJSON(&graph, graphtest.Random(rand.New(rand.NewSource(3)), 58000, 2, prefcover.Independent)); err != nil {
		t.Fatal(err)
	}
	gw := fx.harness.GatewayURL()
	if resp, data := doGW(t, http.DefaultClient, http.MethodPut, gw+"/v1/graphs/big", graph.Bytes()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", resp.StatusCode, data)
	}
	for name, body := range map[string][]byte{"ref": []byte(`{"graph_ref":"big"}`), "inline": graph.Bytes()} {
		resp, data := doGW(t, http.DefaultClient, http.MethodPost, gw+"/v1/solve?variant=i&k=20", body)
		if resp.StatusCode != http.StatusOK || len(data) < 100<<10 {
			t.Fatalf("%s: %d, %d bytes", name, resp.StatusCode, len(data))
		}
		if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v for a %d-byte answer", name, resp.ContentLength, resp.TransferEncoding, len(data))
		}
	}
}
