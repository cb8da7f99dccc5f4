package server

// Internal-package tests for the serving subsystems added around the
// solver: the graph registry endpoints, the prefix-aware solve cache, and
// the async job queue. These need unexported access — the shared
// concurrency limiter (to hold job workers at the gate deterministically)
// and the metric counters (to prove a warm cache answers without invoking
// the solver).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"prefcover"
	"prefcover/internal/graphtest"
	"prefcover/internal/jobs"
	"prefcover/internal/kernel"
	"prefcover/internal/profilez"
	"prefcover/internal/solvecache"
	"prefcover/internal/store"
)

func newServingServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// servingGraph is a deterministic random graph shared by these tests.
func servingGraph(t *testing.T, n int) *prefcover.Graph {
	t.Helper()
	return graphtest.Random(rand.New(rand.NewSource(7)), n, 6, prefcover.Independent)
}

// labeledGraph rebuilds servingGraph with explicit node labels.
// graphtest.Random graphs are unlabeled, and synthetic "#N" labels do not
// survive a JSON round trip (WriteGraphJSON only emits labels for labeled
// graphs), so pin-by-label tests need real labels on both sides.
func labeledGraph(t *testing.T, n int) *prefcover.Graph {
	t.Helper()
	g := servingGraph(t, n)
	b := prefcover.NewBuilder(g.NumNodes(), g.NumEdges())
	label := func(v int32) string { return fmt.Sprintf("item-%03d", v) }
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		b.AddLabeledNode(label(v), g.NodeWeight(v))
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		dsts, ws := g.OutEdges(v)
		for i, u := range dsts {
			b.AddLabeledEdge(label(v), label(u), ws[i])
		}
	}
	lg, err := b.Build(prefcover.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

func graphJSON(t *testing.T, g *prefcover.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := prefcover.WriteGraphJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// doReq issues one request and returns the response with its body read.
func doReq(t *testing.T, method, url string, header http.Header, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// totalSolves sums the solver-invocation counter over every strategy and
// outcome — the proof metric for "served with zero solver work".
func totalSolves(s *Server) int64 {
	var sum int64
	for _, strategy := range []string{"scan", "lazy", "parallel", "stochastic", "pinned"} {
		for _, outcome := range []string{"ok", "canceled", "error"} {
			sum += s.met.solves.With(strategy, outcome).Value()
		}
	}
	return sum
}

func TestGraphRegistryCRUD(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	g := servingGraph(t, 60)
	body := graphJSON(t, g)
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}

	resp, data := doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo", jsonHdr, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first PUT status = %d: %s", resp.StatusCode, data)
	}
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) || len(etag) != 66 {
		t.Fatalf("ETag = %q, want quoted sha256 hex", etag)
	}
	var info store.Info
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("bad info JSON: %v\n%s", err, data)
	}
	if info.Name != "demo" || info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("info = %+v", info)
	}

	// Idempotent replace: same content, 200 (not 201), same ETag.
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo", jsonHdr, body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag {
		t.Fatalf("re-PUT status = %d etag = %q", resp.StatusCode, resp.Header.Get("ETag"))
	}

	// TSV uploads negotiate through the text codec. Text float formatting is
	// lossy, so TSV content addresses independently of the JSON upload — the
	// ETag just has to be a well-formed content hash for the decoded graph.
	var tsv bytes.Buffer
	if err := prefcover.WriteGraphTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	resp, tsvData := doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo-tsv",
		http.Header{"Content-Type": []string{"text/tab-separated-values"}}, tsv.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("TSV PUT status = %d: %s", resp.StatusCode, tsvData)
	}
	tsvTag := resp.Header.Get("ETag")
	if !strings.HasPrefix(tsvTag, `"`) || !strings.HasSuffix(tsvTag, `"`) || len(tsvTag) != 66 {
		t.Fatalf("TSV ETag = %q, want quoted sha256 hex", tsvTag)
	}
	var tsvInfo store.Info
	if err := json.Unmarshal(tsvData, &tsvInfo); err != nil {
		t.Fatal(err)
	}
	if tsvInfo.Nodes != g.NumNodes() || tsvInfo.Edges != g.NumEdges() {
		t.Fatalf("TSV info = %+v, want %d nodes %d edges", tsvInfo, g.NumNodes(), g.NumEdges())
	}
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/graphs/demo-tsv", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("TSV DELETE status = %d", resp.StatusCode)
	}

	resp, data = doReq(t, http.MethodGet, ts.URL+"/v1/graphs", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	var list struct {
		Graphs []store.Info `json:"graphs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "demo" {
		t.Fatalf("list = %+v", list)
	}

	// Download round-trips through each negotiated format.
	resp, data = doReq(t, http.MethodGet, ts.URL+"/v1/graphs/demo", nil, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET status = %d ct = %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("GET ETag = %q", resp.Header.Get("ETag"))
	}
	got, err := prefcover.ReadGraphJSON(bytes.NewReader(data), prefcover.BuildOptions{})
	if err != nil || got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("JSON round-trip: err=%v nodes=%d edges=%d", err, got.NumNodes(), got.NumEdges())
	}
	resp, data = doReq(t, http.MethodGet, ts.URL+"/v1/graphs/demo",
		http.Header{"Accept": []string{"application/octet-stream"}}, nil)
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(data, []byte("PCG1")) {
		t.Fatalf("binary GET status = %d prefix = %q", resp.StatusCode, data[:min(4, len(data))])
	}
	resp, data = doReq(t, http.MethodGet, ts.URL+"/v1/graphs/demo",
		http.Header{"Accept": []string{"text/tab-separated-values"}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tsv GET status = %d", resp.StatusCode)
	}
	if _, err := prefcover.ReadGraphTSV(bytes.NewReader(data), prefcover.BuildOptions{}); err != nil {
		t.Fatalf("TSV round-trip: %v", err)
	}

	// Conditional GET: a matching ETag is a 304 with no body.
	resp, data = doReq(t, http.MethodGet, ts.URL+"/v1/graphs/demo",
		http.Header{"If-None-Match": []string{etag}}, nil)
	if resp.StatusCode != http.StatusNotModified || len(data) != 0 {
		t.Fatalf("If-None-Match status = %d body = %q", resp.StatusCode, data)
	}

	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/graphs/demo", nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/graphs/demo", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE status = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/graphs/demo", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE status = %d", resp.StatusCode)
	}

	// Invalid names never reach the registry.
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/graphs/.hidden", jsonHdr, body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dotfile name status = %d", resp.StatusCode)
	}
}

func TestGraphUploadUnsupportedMedia(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	body := graphJSON(t, servingGraph(t, 20))
	xml := http.Header{"Content-Type": []string{"application/xml"}}

	resp, data := doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo", xml, body)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("PUT status = %d: %s", resp.StatusCode, data)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("415 body not an error envelope: %s", data)
	}

	resp, _ = doReq(t, http.MethodPost, ts.URL+"/v1/solve?variant=i&k=3", xml, body)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/v1/stats", xml, body)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	cases := []struct {
		method, path, wantAllow string
	}{
		{http.MethodGet, "/v1/adapt", "POST"},
		{http.MethodDelete, "/v1/solve", "POST"},
		{http.MethodPut, "/v1/pipeline", "POST"},
		{http.MethodGet, "/v1/stats", "POST"},
		{http.MethodPost, "/v1/graphs", "GET"},
		{http.MethodPatch, "/v1/graphs/x", "GET, HEAD, PUT, DELETE"},
		{http.MethodDelete, "/v1/jobs", "GET, POST"},
		{http.MethodPost, "/v1/jobs/abc", "GET, DELETE"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			resp, data := doReq(t, tc.method, ts.URL+tc.path, nil, nil)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status = %d: %s", resp.StatusCode, data)
			}
			if got := resp.Header.Get("Allow"); got != tc.wantAllow {
				t.Fatalf("Allow = %q, want %q", got, tc.wantAllow)
			}
			var apiErr struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &apiErr); err != nil || apiErr.Error == "" {
				t.Fatalf("405 body not an error envelope: %s", data)
			}
		})
	}
}

// solveRefHTTP posts a graph_ref solve and decodes the reply.
func solveRefHTTP(t *testing.T, baseURL, name, params string) (*http.Response, solveResponse) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"graph_ref": name})
	resp, data := doReq(t, http.MethodPost, baseURL+"/v1/solve"+params,
		http.Header{"Content-Type": []string{"application/json"}}, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve %s status = %d: %s", params, resp.StatusCode, data)
	}
	var out solveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestSolveByRefWarmCacheSkipsSolver is the core acceptance test: after
// one budget-k solve of a registered graph, every budget k' ≤ k and every
// reachable threshold is served from the cached prefix with the solver
// invocation counter provably unchanged.
func TestSolveByRefWarmCacheSkipsSolver(t *testing.T) {
	s, ts := newServingServer(t, Config{})
	g := servingGraph(t, 300)
	const kMax = 24
	resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, g))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}

	// Cold: one real solve at the largest budget.
	resp, cold := solveRefHTTP(t, ts.URL, "demo", fmt.Sprintf("?variant=i&k=%d", kMax))
	if got := resp.Header.Get("X-Prefcover-Cache"); got != "miss" {
		t.Fatalf("cold solve cache header = %q", got)
	}
	if cold.K != kMax {
		t.Fatalf("cold K = %d", cold.K)
	}
	base := totalSolves(s)
	if base == 0 {
		t.Fatal("cold solve did not increment the solver counter")
	}

	// Warm: every smaller budget must be byte-equal to a fresh solve and
	// must not touch the solver.
	for _, k := range []int{1, 2, 5, 11, kMax - 1, kMax} {
		resp, warm := solveRefHTTP(t, ts.URL, "demo", fmt.Sprintf("?variant=i&k=%d", k))
		if got := resp.Header.Get("X-Prefcover-Cache"); got != "hit" {
			t.Fatalf("k=%d cache header = %q", k, got)
		}
		want, err := prefcover.Solve(g, prefcover.Options{Variant: prefcover.Independent, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if len(warm.Order) != k || warm.Cover != want.Cover || !warm.Reached {
			t.Fatalf("k=%d: got cover %v len %d, want cover %v len %d",
				k, warm.Cover, len(warm.Order), want.Cover, len(want.Order))
		}
		for i, v := range want.Order {
			if warm.Order[i] != g.Label(v) {
				t.Fatalf("k=%d order[%d] = %q, want %q", k, i, warm.Order[i], g.Label(v))
			}
			if warm.Gains[i] != want.Gains[i] {
				t.Fatalf("k=%d gains[%d] = %v, want %v", k, i, warm.Gains[i], want.Gains[i])
			}
		}
		assertCoverageBits(t, fmt.Sprintf("k=%d", k), warm.Coverage, want.Coverage)
	}

	// Threshold mode against the cached curve: compare with MinCover for a
	// threshold the cached prefix reaches.
	reachable := cold.Cover * 0.8
	resp, warmT := solveRefHTTP(t, ts.URL, "demo", fmt.Sprintf("?variant=i&threshold=%g", reachable))
	if got := resp.Header.Get("X-Prefcover-Cache"); got != "hit" {
		t.Fatalf("threshold cache header = %q", got)
	}
	wantT, err := prefcover.MinCover(g, prefcover.Independent, reachable)
	if err != nil {
		t.Fatal(err)
	}
	if len(warmT.Order) != len(wantT.Order) || warmT.Cover != wantT.Cover || warmT.Reached != wantT.Reached {
		t.Fatalf("threshold: got (len %d, cover %v, reached %v), want (len %d, cover %v, reached %v)",
			len(warmT.Order), warmT.Cover, warmT.Reached, len(wantT.Order), wantT.Cover, wantT.Reached)
	}
	assertCoverageBits(t, "threshold", warmT.Coverage, wantT.Coverage)

	if got := totalSolves(s); got != base {
		t.Fatalf("solver ran %d more times on warm queries", got-base)
	}

	// The warm traffic shows up on /metrics.
	resp, metricsBody := doReq(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		`prefcover_solvecache_requests_total{status="hit"} 7`,
		`prefcover_solvecache_requests_total{status="miss"} 1`,
		`prefcover_store_graphs 1`,
		`prefcover_store_graph_solves{graph="demo"} 1`,
		`prefcover_solvecache_entries 1`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Beyond the cached prefix the cache must decline and solve fresh.
	resp, _ = solveRefHTTP(t, ts.URL, "demo", fmt.Sprintf("?variant=i&k=%d", kMax+10))
	if got := resp.Header.Get("X-Prefcover-Cache"); got != "miss" {
		t.Fatalf("k beyond prefix cache header = %q", got)
	}
	if got := totalSolves(s); got != base+1 {
		t.Fatalf("beyond-prefix solve count = %d, want %d", got, base+1)
	}

	// The coverage bits of other lineages do not depend on cache state
	// either: a pinned lineage and the Normalized variant, each warmed at
	// kMax and then hit at shorter budgets.
	gn := graphtest.Random(rand.New(rand.NewSource(7)), 300, 6, prefcover.Normalized)
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo-n",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, gn))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT demo-n status = %d", resp.StatusCode)
	}
	for _, tc := range []struct {
		name, graph, params string
		g                   *prefcover.Graph
		variant             prefcover.Variant
		pins                []int32
	}{
		{"pinned", "demo", "?variant=i&pin=%23201&pin=%2317", g, prefcover.Independent, []int32{201, 17}},
		{"normalized", "demo-n", "?variant=n", gn, prefcover.Normalized, nil},
	} {
		for i, k := range []int{kMax, 2, 9, kMax - 1, kMax} {
			resp, warm := solveRefHTTP(t, ts.URL, tc.graph, fmt.Sprintf("%s&k=%d", tc.params, k))
			wantHeader := "hit"
			if i == 0 {
				wantHeader = "miss"
			}
			if got := resp.Header.Get("X-Prefcover-Cache"); got != wantHeader {
				t.Fatalf("%s k=%d cache header = %q, want %q", tc.name, k, got, wantHeader)
			}
			want, err := prefcover.Solve(tc.g, prefcover.Options{Variant: tc.variant, K: k, Pinned: tc.pins})
			if err != nil {
				t.Fatal(err)
			}
			assertCoverageBits(t, fmt.Sprintf("%s k=%d", tc.name, k), warm.Coverage, want.Coverage)
		}
	}
}

// assertCoverageBits demands that a served coverage report equal a fresh
// solve's bit for bit, so the bytes of a query do not depend on whether the
// cache or the solver answered it.
func assertCoverageBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: coverage has %d entries, want %d", what, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: coverage[%d] = %v, want %v", what, v, got[v], want[v])
		}
	}
}

// TestConcurrentHitsKeepTheirBytes races shorter-prefix hits on one warm
// lineage: each request replays on reused solver state and encodes into a
// pooled buffer, and every body must still equal the one a lone request
// got for the same k.
func TestConcurrentHitsKeepTheirBytes(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	g := servingGraph(t, 400)
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, g))
	const kMax = 30
	solveRefHTTP(t, ts.URL, "demo", fmt.Sprintf("?variant=i&k=%d", kMax))
	ref, _ := json.Marshal(map[string]string{"graph_ref": "demo"})
	post := func(k int) ([]byte, error) {
		resp, err := http.Post(fmt.Sprintf("%s/v1/solve?variant=i&k=%d", ts.URL, k), "application/json", bytes.NewReader(ref))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	want := make(map[int][]byte, kMax)
	for k := 1; k <= kMax; k++ {
		body, err := post(k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = body
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := 1 + (w*7+i*11)%kMax
				body, err := post(k)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(body, want[k]) {
					t.Errorf("k=%d: concurrent body differs from the lone request's", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestSolveByRefPinsMatchInline(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	g := labeledGraph(t, 120)
	body := graphJSON(t, g)
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, body)

	pin := g.Label(17)
	params := "?variant=i&k=9&pin=" + url.QueryEscape(pin)
	_, byRef := solveRefHTTP(t, ts.URL, "demo", params)
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/solve"+params,
		http.Header{"Content-Type": []string{"application/json"}}, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline status = %d: %s", resp.StatusCode, data)
	}
	var inline solveResponse
	if err := json.Unmarshal(data, &inline); err != nil {
		t.Fatal(err)
	}
	if byRef.Order[0] != pin || inline.Order[0] != pin {
		t.Fatalf("pin not first: ref %q inline %q", byRef.Order[0], inline.Order[0])
	}
	if byRef.Cover != inline.Cover || len(byRef.Order) != len(inline.Order) {
		t.Fatalf("ref vs inline: cover %v/%v len %d/%d", byRef.Cover, inline.Cover, len(byRef.Order), len(inline.Order))
	}
	for i := range inline.Order {
		if byRef.Order[i] != inline.Order[i] {
			t.Fatalf("order[%d] = %q vs %q", i, byRef.Order[i], inline.Order[i])
		}
	}
}

func TestSolveRefUnknownGraph(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	body, _ := json.Marshal(map[string]string{"graph_ref": "nope"})
	resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/solve?variant=i&k=3",
		http.Header{"Content-Type": []string{"application/json"}}, body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// pollJob GETs a job until it reaches a terminal state.
func pollJob(t *testing.T, baseURL, id string) jobPayload {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := doReq(t, http.MethodGet, baseURL+"/v1/jobs/"+id, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job GET status = %d: %s", resp.StatusCode, data)
		}
		var snap jobPayload
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		switch snap.State {
		case "done", "failed", "canceled":
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobPayload{}
}

func TestJobLifecycleHTTP(t *testing.T) {
	s, ts := newServingServer(t, Config{Jobs: jobs.Options{Workers: 1}})
	g := servingGraph(t, 200)
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, g))

	const k = 15
	reqBody, _ := json.Marshal(map[string]any{"graph_ref": "demo", "variant": "independent", "k": k})
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/jobs",
		http.Header{"Content-Type": []string{"application/json"}}, reqBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, data)
	}
	var submitted jobPayload
	if err := json.Unmarshal(data, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.ID == "" || submitted.State != "queued" {
		t.Fatalf("submitted = %+v", submitted)
	}

	final := pollJob(t, ts.URL, submitted.ID)
	if final.State != "done" || final.Error != "" {
		t.Fatalf("final = %+v", final)
	}
	if final.Progress.Step != k || final.Progress.Target != k || final.Progress.Cover <= 0 {
		t.Fatalf("progress = %+v", final.Progress)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatalf("timestamps missing: %+v", final)
	}
	result, ok := final.Result.(map[string]any)
	if !ok {
		t.Fatalf("result = %T", final.Result)
	}
	order, _ := result["order"].([]any)
	if len(order) != k {
		t.Fatalf("result order len = %d", len(order))
	}

	// The finished job warmed the cache: a synchronous reference solve at a
	// smaller budget is a hit with no further solver runs.
	base := totalSolves(s)
	resp, warm := solveRefHTTP(t, ts.URL, "demo", "?variant=i&k=4")
	if got := resp.Header.Get("X-Prefcover-Cache"); got != "hit" {
		t.Fatalf("post-job solve cache header = %q", got)
	}
	if len(warm.Order) != 4 {
		t.Fatalf("warm order len = %d", len(warm.Order))
	}
	if got := totalSolves(s); got != base {
		t.Fatal("post-job solve invoked the solver")
	}

	// Listing includes the job; deleting a finished job forgets it.
	resp, data = doReq(t, http.MethodGet, ts.URL+"/v1/jobs", nil, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), submitted.ID) {
		t.Fatalf("list status = %d body = %s", resp.StatusCode, data)
	}
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/jobs/"+submitted.ID, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete finished status = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+submitted.ID, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete status = %d", resp.StatusCode)
	}
}

// TestJobResultBytes checks that a finished job, which keeps its result as
// encoded bytes, serves GET /v1/jobs/{id} byte-identical to encoding a job
// payload whose result is the solveResponse of a fresh solve — for a job
// that ran the solver and for one answered from a shorter cached prefix.
// Both are checked only after later requests have reused the pooled
// response buffers, so a result aliasing one would show.
func TestJobResultBytes(t *testing.T) {
	s, ts := newServingServer(t, Config{Jobs: jobs.Options{Workers: 1}})
	g := servingGraph(t, 200)
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, g))
	ids := map[int]string{}
	for _, k := range []int{15, 6} {
		reqBody, _ := json.Marshal(map[string]any{"graph_ref": "demo", "variant": "i", "k": k})
		resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/jobs",
			http.Header{"Content-Type": []string{"application/json"}}, reqBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d: %s", resp.StatusCode, data)
		}
		var submitted jobPayload
		if err := json.Unmarshal(data, &submitted); err != nil {
			t.Fatal(err)
		}
		if final := pollJob(t, ts.URL, submitted.ID); final.State != "done" {
			t.Fatalf("k=%d: job state %s (%s)", k, final.State, final.Error)
		}
		ids[k] = submitted.ID
	}
	for k := 1; k <= 15; k++ {
		solveRefHTTP(t, ts.URL, "demo", fmt.Sprintf("?variant=i&k=%d", k))
	}
	for k, id := range ids {
		_, body := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, nil)
		snap, ok := s.jobs.Get(id)
		if !ok {
			t.Fatalf("k=%d: job gone", k)
		}
		sol, err := prefcover.Solve(g, prefcover.Options{Variant: prefcover.Independent, K: k})
		if err != nil {
			t.Fatal(err)
		}
		order := make([]string, len(sol.Order))
		for i, v := range sol.Order {
			order[i] = g.Label(v)
		}
		want := solveResponse{Variant: "independent", K: len(sol.Order), Cover: sol.Cover, Reached: sol.Reached,
			Order: order, Gains: sol.Gains, Coverage: sol.Coverage}
		// Resource figures are measured, so take them from the job itself.
		var ran struct {
			Resources *profilez.Usage `json:"resources"`
		}
		if err := json.Unmarshal(snap.Result.(json.RawMessage), &ran); err != nil {
			t.Fatal(err)
		}
		if (ran.Resources != nil) != (k == 15) {
			t.Fatalf("k=%d: resources %+v; want them only on the job that solved", k, ran.Resources)
		}
		want.Resources = ran.Resources
		old := jobJSON(snap)
		old.Result = want
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(old); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, buf.Bytes()) {
			t.Fatalf("k=%d: job status bytes differ from the solveResponse encoding:\n got %.300s\nwant %.300s", k, body, buf.Bytes())
		}
	}
}

func TestJobValidation(t *testing.T) {
	_, ts := newServingServer(t, Config{Jobs: jobs.Options{Workers: 1}})
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"unknown graph", `{"graph_ref":"nope","variant":"i","k":3}`, http.StatusNotFound},
		{"missing ref", `{"variant":"i","k":3}`, http.StatusBadRequest},
		{"no k or threshold", `{"graph_ref":"x","variant":"i"}`, http.StatusBadRequest},
		{"unknown field", `{"graph_ref":"x","variant":"i","k":3,"treshold":0.5}`, http.StatusBadRequest},
		{"bad variant", `{"graph_ref":"x","variant":"zzz","k":3}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", jsonHdr, []byte(tc.body))
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.wantStatus, data)
			}
		})
	}
}

// TestJobQueueFullAndCancel holds the shared concurrency limiter so the
// single worker blocks at the gate, proving (a) a full queue answers 429
// and (b) queued jobs cancel cleanly without ever touching the solver.
func TestJobQueueFullAndCancel(t *testing.T) {
	s, ts := newServingServer(t, Config{
		Limits: Limits{MaxConcurrent: 1},
		Jobs:   jobs.Options{Workers: 1, QueueDepth: 1},
	})
	g := servingGraph(t, 80)
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, g))

	// Occupy the only concurrency slot: the job worker now blocks at the
	// gate, so accepted jobs pile up queued.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	reqBody, _ := json.Marshal(map[string]any{"graph_ref": "demo", "variant": "i", "k": 5})
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	var accepted []string
	saw429 := false
	for i := 0; i < 4 && !saw429; i++ {
		resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", jsonHdr, reqBody)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var snap jobPayload
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, snap.ID)
		case http.StatusTooManyRequests:
			saw429 = true
			var apiErr struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &apiErr); err != nil || !strings.Contains(apiErr.Error, "queue full") {
				t.Fatalf("429 body = %s", data)
			}
		default:
			t.Fatalf("submit status = %d: %s", resp.StatusCode, data)
		}
	}
	if !saw429 {
		t.Fatal("queue never filled: no 429 within worker+queue+1 submissions")
	}
	// Worker (1) + queue (1) bounds the accepted backlog.
	if len(accepted) > 2 {
		t.Fatalf("accepted %d jobs with worker=1 queue=1", len(accepted))
	}

	// Cancel everything that was accepted; all of it is still gated.
	for _, id := range accepted {
		resp, data := doReq(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel status = %d: %s", resp.StatusCode, data)
		}
		if snap := pollJob(t, ts.URL, id); snap.State != "canceled" {
			t.Fatalf("job %s state = %s after cancel", id, snap.State)
		}
	}
	if got := totalSolves(s); got != 0 {
		t.Fatalf("solver ran %d times for canceled jobs", got)
	}
}

// TestDeleteDuringSolveNotCached deletes the graph while its solve is in
// flight: the response is still served, but the result must not remain in
// the cache (its content was invalidated mid-run).
func TestDeleteDuringSolveNotCached(t *testing.T) {
	s, err := NewWithConfig(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := servingGraph(t, 150)
	if _, _, err := s.store.Put("demo", g); err != nil {
		t.Fatal(err)
	}

	req := jobs.Request{GraphRef: "demo", Variant: "independent", K: 10}
	task, _, err := s.resolve(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	deleted := false
	task.opts.Progress = func(ev prefcover.ProgressEvent) {
		if !deleted && ev.Step == 2 {
			deleted = true
			if !s.store.Delete("demo") {
				t.Error("mid-solve delete failed")
			}
		}
	}
	data, status, err := s.answer(context.Background(), task, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp solveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if status != solvecache.StatusMiss || resp.K != 10 {
		t.Fatalf("status = %v K = %d", status, resp.K)
	}
	if !deleted {
		t.Fatal("progress hook never fired")
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after mid-solve delete", n)
	}

	// Re-registering the same content starts cold: the orphaned result is
	// really gone.
	if _, _, err := s.store.Put("demo", g); err != nil {
		t.Fatal(err)
	}
	task2, _, err := s.resolve(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, status, err = s.answer(context.Background(), task2, nil); err != nil || status != solvecache.StatusMiss {
		t.Fatalf("re-solve status = %v err = %v, want fresh miss", status, err)
	}
}

// TestPutRejectsUnanswerableWeights: a graph carrying a weight no solve can
// answer — NaN or +Inf in a binary upload, below -graph.Eps in a JSON one —
// answers 400 naming the node, and the registry stores nothing.
func TestPutRejectsUnanswerableWeights(t *testing.T) {
	s, ts := newServingServer(t, Config{})
	binary := func(w float64) []byte {
		b := prefcover.NewBuilder(3, 1)
		b.AddNode(0.5)
		b.AddNode(w)
		b.AddNode(0.25)
		b.AddEdge(0, 1, 0.5)
		g, err := b.Build(prefcover.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := prefcover.WriteGraphBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, tc := range map[string]struct {
		contentType string
		body        []byte
		want        string
	}{
		"nan":      {"application/octet-stream", binary(math.NaN()), `node "#1" has weight NaN`},
		"inf":      {"application/octet-stream", binary(math.Inf(1)), `node "#1" has weight +Inf`},
		"negative": {"application/json", []byte(`{"nodes":[{"weight":0.5},{"weight":-0.1},{"weight":0.6}],"edges":[]}`), `node "#1" has weight -0.1`},
	} {
		resp, data := doReq(t, http.MethodPut, ts.URL+"/v1/graphs/"+name, http.Header{"Content-Type": {tc.contentType}}, tc.body)
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &env); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(env.Error, tc.want) {
			t.Errorf("%s: PUT answered %d %s, want 400 naming %s", name, resp.StatusCode, data, tc.want)
		}
	}
	if n := s.store.Len(); n != 0 {
		t.Fatalf("the registry stored %d of the rejected graphs", n)
	}
}

// TestSolveAnswersCarryContentLength: a solve answer of about 114 KiB, by
// reference and inline, goes out with its Content-Length, not chunked.
func TestSolveAnswersCarryContentLength(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	body := graphJSON(t, graphtest.Random(rand.New(rand.NewSource(3)), 58000, 2, prefcover.Independent))
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	if resp, data := doReq(t, http.MethodPut, ts.URL+"/v1/graphs/big", jsonHdr, body); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", resp.StatusCode, data)
	}
	for name, req := range map[string][]byte{"ref": []byte(`{"graph_ref":"big"}`), "inline": body} {
		resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/solve?variant=i&k=20", jsonHdr, req)
		if resp.StatusCode != http.StatusOK || len(data) < 100<<10 {
			t.Fatalf("%s: %d, %d bytes", name, resp.StatusCode, len(data))
		}
		if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v for a %d-byte answer", name, resp.ContentLength, resp.TransferEncoding, len(data))
		}
	}
}

// TestGraphReplaceInvalidatesCache replaces a graph's content through the
// API and checks the old cached solution is not served for the new graph.
func TestGraphReplaceInvalidatesCache(t *testing.T) {
	s, ts := newServingServer(t, Config{})
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	g1 := servingGraph(t, 90)
	g2 := graphtest.Random(rand.New(rand.NewSource(99)), 90, 6, prefcover.Independent)

	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo", jsonHdr, graphJSON(t, g1))
	solveRefHTTP(t, ts.URL, "demo", "?variant=i&k=6")
	if s.cache.Len() != 1 {
		t.Fatalf("cache len = %d after first solve", s.cache.Len())
	}

	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo", jsonHdr, graphJSON(t, g2))
	if s.cache.Len() != 0 {
		t.Fatalf("cache len = %d after replace", s.cache.Len())
	}
	resp, fresh := solveRefHTTP(t, ts.URL, "demo", "?variant=i&k=6")
	if got := resp.Header.Get("X-Prefcover-Cache"); got != "miss" {
		t.Fatalf("post-replace cache header = %q", got)
	}
	want, err := prefcover.Solve(g2, prefcover.Options{Variant: prefcover.Independent, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cover != want.Cover {
		t.Fatalf("post-replace cover = %v, want %v (solved against stale graph?)", fresh.Cover, want.Cover)
	}
}

// TestGraphSolvesSeriesFollowRegistry: prefcover_store_graph_solves has
// one series per registered graph, so a deleted or evicted graph's series
// goes with it, and concurrent scrapes each see the whole family.
func TestGraphSolvesSeriesFollowRegistry(t *testing.T) {
	s, ts := newServingServer(t, Config{Store: store.Options{MaxGraphs: 2}})
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	body := graphJSON(t, servingGraph(t, 40))
	series := func() []string {
		var names []string
		for _, sm := range s.snapshot().Samples("prefcover_store_graph_solves") {
			name, _ := sm.Labels.Get("graph")
			names = append(names, name)
		}
		return names
	}
	put := func(name string) { doReq(t, http.MethodPut, ts.URL+"/v1/graphs/"+name, jsonHdr, body) }
	put("gone")
	series() // a scrape creates gone's series
	doReq(t, http.MethodDelete, ts.URL+"/v1/graphs/gone", nil, nil)
	put("old")
	series()
	put("kept")
	put("new") // MaxGraphs 2: evicts old, the least recently used
	if got := strings.Join(series(), ","); got != "kept,new" {
		t.Fatalf("graph_solves series for %q, want kept,new (gone deleted, old evicted)", got)
	}
	if _, text := scrapeMetrics(t, ts.URL); strings.Contains(text, `graph="gone"`) || strings.Contains(text, `graph="old"`) {
		t.Fatal("/metrics still shows a series of a deleted or evicted graph")
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if n := len(series()); n != 2 {
					t.Errorf("a concurrent scrape saw %d graph_solves series, want 2", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDerivedBytesFollowRegistry: prefcover_store_derived_bytes counts the
// kernel's record of each graph value the registry holds, once. A second
// name with the same content adds nothing, and evicting a solved graph
// takes away exactly its record's bytes, its coverage template (2 bytes a
// node) included. GC is off, so no cycle drops an idle buffer set between
// the readings.
func TestDerivedBytesFollowRegistry(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, ts := newServingServer(t, Config{Store: store.Options{MaxGraphs: 3}})
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	var templates int64
	derived := func() (heaps, bufs int64) {
		for _, sm := range s.snapshot().Samples("prefcover_store_derived_bytes") {
			switch kind, _ := sm.Labels.Get("kind"); kind {
			case "base_heap":
				heaps = int64(sm.Value)
			case "buffers":
				bufs = int64(sm.Value)
			case "coverage_template":
				templates = int64(sm.Value)
			}
		}
		return heaps, bufs
	}
	put := func(name string, body []byte) {
		t.Helper()
		if resp, data := doReq(t, http.MethodPut, ts.URL+"/v1/graphs/"+name, jsonHdr, body); resp.StatusCode >= 300 {
			t.Fatalf("PUT %s = %d: %s", name, resp.StatusCode, data)
		}
	}
	keptBody := graphJSON(t, servingGraph(t, 60))
	put("old", graphJSON(t, servingGraph(t, 40)))
	old, _ := s.store.Get("old")
	put("kept", keptBody)
	solveRefHTTP(t, ts.URL, "old", "?variant=i&k=5")
	solveRefHTTP(t, ts.URL, "kept", "?variant=i&k=5")
	heaps, bufs := derived()
	oldHeaps, oldBufs := kernel.DerivedBytes(old.Graph)
	if oldHeaps == 0 || oldBufs == 0 || heaps <= oldHeaps || bufs <= oldBufs {
		t.Fatalf("derived bytes %d heap, %d buffers; old's record %d, %d: want both graphs counted", heaps, bufs, oldHeaps, oldBufs)
	}
	if templates != 2*(40+60) || kernel.TemplateBytes(old.Graph) != 2*40 {
		t.Fatalf("coverage templates read %d bytes, old's %d; want 2 a node", templates, kernel.TemplateBytes(old.Graph))
	}
	put("twin", keptBody)
	if h, b := derived(); h != heaps || b != bufs {
		t.Fatalf("a second name with kept's content moved derived bytes from %d, %d to %d, %d", heaps, bufs, h, b)
	}
	put("new", graphJSON(t, servingGraph(t, 50))) // MaxGraphs 3: evicts old, the least recently used
	if _, ok := s.store.Info("old"); ok {
		t.Fatal("old was not evicted")
	}
	if h, b := derived(); heaps-h != oldHeaps || bufs-b != oldBufs {
		t.Fatalf("evicting old took %d, %d derived bytes away, want its record's %d, %d", heaps-h, bufs-b, oldHeaps, oldBufs)
	}
	if templates != 2*60 {
		t.Fatalf("after old's eviction coverage templates read %d bytes, want kept's %d", templates, 2*60)
	}
}
