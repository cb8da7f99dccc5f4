package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prefcover"
	. "prefcover/internal/server"
)

func testServer(t *testing.T, limits Limits) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(limits, nil).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// figure3JSONL is the paper's Figure 3 clickstream as JSONL.
const figure3JSONL = `{"id":"s1","purchase":"silver","clicks":["gold"]}
{"id":"s2","purchase":"silver","clicks":["spacegray"]}
{"id":"s3","purchase":"spacegray"}
{"id":"s4","purchase":"spacegray","clicks":["silver"]}
{"id":"s5","purchase":"gold","clicks":["spacegray"]}
`

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	ts := testServer(t, Limits{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAdaptAutoVariant(t *testing.T) {
	ts := testServer(t, Limits{})
	resp, body := postJSON(t, ts.URL+"/v1/adapt?variant=auto", figure3JSONL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Variant          string          `json:"variant"`
		VariantConfident bool            `json:"variantConfident"`
		Graph            json.RawMessage `json:"graph"`
		Report           struct {
			PurchaseSessions       int     `json:"PurchaseSessions"`
			SingleAlternativeShare float64 `json:"SingleAlternativeShare"`
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad json: %v\n%s", err, body)
	}
	if out.Variant != "normalized" || !out.VariantConfident {
		t.Errorf("variant = %s confident=%v", out.Variant, out.VariantConfident)
	}
	if out.Report.PurchaseSessions != 5 || out.Report.SingleAlternativeShare != 1 {
		t.Errorf("report = %+v", out.Report)
	}
	// The embedded graph must parse back.
	g, err := prefcover.ReadGraphJSON(bytes.NewReader(out.Graph), prefcover.BuildOptions{})
	if err != nil {
		t.Fatalf("embedded graph: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 4 {
		t.Errorf("graph shape %d/%d", g.NumNodes(), g.NumEdges())
	}
}

func TestSolveEndpoint(t *testing.T) {
	ts := testServer(t, Limits{})
	// Figure 1 graph as JSON.
	b := prefcover.NewBuilder(0, 0)
	b.AddLabeledNode("A", 0.33)
	b.AddLabeledNode("B", 0.22)
	b.AddLabeledNode("C", 0.22)
	b.AddLabeledNode("D", 0.06)
	b.AddLabeledNode("E", 0.17)
	b.AddLabeledEdge("A", "B", 2.0/3.0)
	b.AddLabeledEdge("A", "C", 0.3)
	b.AddLabeledEdge("B", "C", 0.8)
	b.AddLabeledEdge("C", "B", 1.0)
	b.AddLabeledEdge("D", "C", 0.5)
	b.AddLabeledEdge("E", "D", 0.9)
	g, err := b.Build(prefcover.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var graphJSON bytes.Buffer
	if err := prefcover.WriteGraphJSON(&graphJSON, g); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve?variant=i&k=2", graphJSON.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Cover float64  `json:"cover"`
		Order []string `json:"order"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Cover-0.873) > 1e-9 {
		t.Errorf("cover = %g", out.Cover)
	}
	if len(out.Order) != 2 || out.Order[0] != "B" || out.Order[1] != "D" {
		t.Errorf("order = %v", out.Order)
	}
}

func TestPipelineEndpoint(t *testing.T) {
	ts := testServer(t, Limits{})
	resp, body := postJSON(t, ts.URL+"/v1/pipeline?k=1", figure3JSONL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Adapt struct {
			Variant string `json:"variant"`
		} `json:"adapt"`
		Solve struct {
			Cover float64  `json:"cover"`
			Order []string `json:"order"`
		} `json:"solve"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Adapt.Variant != "normalized" {
		t.Errorf("variant = %s", out.Adapt.Variant)
	}
	if len(out.Solve.Order) != 1 || out.Solve.Order[0] != "spacegray" {
		t.Errorf("order = %v", out.Solve.Order)
	}
	if math.Abs(out.Solve.Cover-0.8) > 1e-9 {
		t.Errorf("cover = %g", out.Solve.Cover)
	}
}

func TestPipelineThresholdMode(t *testing.T) {
	ts := testServer(t, Limits{})
	resp, body := postJSON(t, ts.URL+"/v1/pipeline?threshold=0.9&variant=n", figure3JSONL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Solve struct {
			Reached bool    `json:"reached"`
			Cover   float64 `json:"cover"`
		} `json:"solve"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Solve.Reached || out.Solve.Cover < 0.9-1e-9 {
		t.Errorf("solve = %+v", out.Solve)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := testServer(t, Limits{})
	for name, tc := range map[string]struct {
		path, body string
		wantStatus int
	}{
		"get on solve":  {"/v1/solve?variant=i&k=1", "", http.StatusMethodNotAllowed},
		"bad variant":   {"/v1/solve?variant=zzz&k=1", "{}", http.StatusBadRequest},
		"missing k":     {"/v1/solve?variant=i", "{}", http.StatusBadRequest},
		"bad k":         {"/v1/solve?variant=i&k=x", "{}", http.StatusBadRequest},
		"bad threshold": {"/v1/solve?variant=i&threshold=x", "{}", http.StatusBadRequest},
		"bad workers":   {"/v1/solve?variant=i&k=1&workers=x", "{}", http.StatusBadRequest},
		"bad graph":     {"/v1/solve?variant=i&k=1", "{nope", http.StatusBadRequest},
		"negative node weight": {"/v1/solve?variant=i&k=1",
			`{"nodes":[{"weight":-0.1},{"weight":0.6}],"edges":[{"src":0,"dst":1,"weight":0.5}]}`, http.StatusBadRequest},
		"negative edge weight": {"/v1/solve?variant=i&k=1",
			`{"nodes":[{"weight":0.4},{"weight":0.6}],"edges":[{"src":0,"dst":1,"weight":-0.5}]}`, http.StatusBadRequest},
		"empty clickstream":   {"/v1/adapt", "", http.StatusBadRequest},
		"garbage clickstream": {"/v1/adapt", "not json", http.StatusBadRequest},
		"pipeline no budget":  {"/v1/pipeline", figure3JSONL, http.StatusBadRequest},
	} {
		var resp *http.Response
		var body []byte
		if name == "get on solve" {
			r, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			resp = r
		} else {
			resp, body = postJSON(t, ts.URL+tc.path, tc.body)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", name, resp.StatusCode, tc.wantStatus, body)
		}
	}
}

func TestMaxSolveKLimit(t *testing.T) {
	ts := testServer(t, Limits{MaxSolveK: 3})
	resp, body := postJSON(t, ts.URL+"/v1/solve?variant=i&k=10", "{}")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "server limit") {
		t.Errorf("body = %s", body)
	}
}

// TestMaxBodyLimit checks that every bounded body answers 413 once it
// passes MaxBodyBytes, whatever the handler was doing with it.
func TestMaxBodyLimit(t *testing.T) {
	ts := testServer(t, Limits{MaxBodyBytes: 64})
	b := prefcover.NewBuilder(0, 0)
	for i := 0; i < 8; i++ {
		b.AddLabeledNode(fmt.Sprintf("item-%d", i), 0.125)
	}
	b.AddLabeledEdge("item-0", "item-1", 0.5)
	g, err := b.Build(prefcover.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var js, bin bytes.Buffer
	if err := prefcover.WriteGraphJSON(&js, g); err != nil {
		t.Fatal(err)
	}
	if err := prefcover.WriteGraphBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, method, path, contentType, body string
	}{
		{"adapt", http.MethodPost, "/v1/adapt", "application/json", strings.Repeat(figure3JSONL, 10)},
		{"json graph put", http.MethodPut, "/v1/graphs/big", "application/json", js.String()},
		{"binary graph put", http.MethodPut, "/v1/graphs/big", "application/octet-stream", bin.String()},
		{"inline solve", http.MethodPost, "/v1/solve?variant=i&k=1", "application/json", js.String()},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", tc.contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413 (%s)", tc.name, resp.StatusCode, body)
		}
	}
}

func TestSolveBinaryGraph(t *testing.T) {
	ts := testServer(t, Limits{})
	b := prefcover.NewBuilder(0, 0)
	b.AddLabeledNode("x", 0.6)
	b.AddLabeledNode("y", 0.4)
	b.AddLabeledEdge("x", "y", 0.5)
	g, err := b.Build(prefcover.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := prefcover.WriteGraphBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve?variant=i&k=1", "application/octet-stream", &bin)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body.String())
	}
	var out struct {
		Order []string `json:"order"`
	}
	if err := json.Unmarshal(body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Order) != 1 || out.Order[0] != "y" {
		t.Errorf("order = %v", out.Order)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t, Limits{})
	graphJSON := `{"nodes":[{"weight":0.6},{"weight":0.4}],"edges":[{"src":0,"dst":1,"weight":0.5}]}`
	resp, body := postJSON(t, ts.URL+"/v1/stats", graphJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Nodes int `json:"Nodes"`
		Edges int `json:"Edges"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Nodes != 2 || out.Edges != 1 {
		t.Errorf("stats = %+v", out)
	}
	// Garbage binary body.
	resp2, err := http.Post(ts.URL+"/v1/stats", "application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage binary status = %d", resp2.StatusCode)
	}
}

// TestConcurrentPipelines exercises the handler under parallel load; run
// with -race in CI to catch shared-state regressions.
func TestConcurrentPipelines(t *testing.T) {
	ts := testServer(t, Limits{})
	const workers = 8
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/pipeline?k=1", "application/json", strings.NewReader(figure3JSONL))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveScanStrategyParam(t *testing.T) {
	ts := testServer(t, Limits{})
	graphJSON := `{"nodes":[{"label":"x","weight":0.6},{"label":"y","weight":0.4}],"edges":[{"src":0,"dst":1,"weight":0.5}]}`
	for _, q := range []string{"lazy=0", "lazy=1", "workers=4"} {
		resp, body := postJSON(t, fmt.Sprintf("%s/v1/solve?variant=i&k=1&%s", ts.URL, q), graphJSON)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", q, resp.StatusCode, body)
		}
		var out struct {
			Order []string `json:"order"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		// Gain(y) = 0.4 + 0.5*0.6 = 0.7 beats Gain(x) = 0.6.
		if len(out.Order) != 1 || out.Order[0] != "y" {
			t.Errorf("%s: order = %v", q, out.Order)
		}
	}
}
