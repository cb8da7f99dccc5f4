package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"prefcover"
	"prefcover/adapt"
	"prefcover/clickstream"
	"prefcover/internal/server"
)

// TestAdaptFlowAgrees: prefcoverd's /v1/adapt, the public adapt.Pipeline
// and `prefcover adapt` run one adaptation flow, so on a clickstream that
// recommends Normalized and on one that recommends Independent they give
// the same graph bytes and the same report.
func TestAdaptFlowAgrees(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Limits{}, nil).Handler())
	defer ts.Close()
	ctx := context.Background()
	for preset, want := range map[string]prefcover.Variant{"PM": prefcover.Normalized, "PE": prefcover.Independent} {
		dir := t.TempDir()
		sessions := filepath.Join(dir, "sessions.jsonl")
		if err := runGen(ctx, []string{"-preset", preset, "-scale", "0.0003", "-seed", "3", "-format", "jsonl", "-out", sessions}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(sessions)
		if err != nil {
			t.Fatal(err)
		}

		// The public pipeline.
		store, err := clickstream.ReadAll(clickstream.NewJSONLReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&adapt.Pipeline{K: 1}).Run(store)
		if err != nil {
			t.Fatal(err)
		}
		if res.Variant != want {
			t.Fatalf("%s: recommended %v, want %v", preset, res.Variant, want)
		}
		var graphJSON bytes.Buffer
		if err := prefcover.WriteGraphJSON(&graphJSON, res.Graph); err != nil {
			t.Fatal(err)
		}
		report, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}

		// The server.
		resp, err := http.Post(ts.URL+"/v1/adapt", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var srv struct {
			Variant          string          `json:"variant"`
			VariantConfident bool            `json:"variantConfident"`
			Report           json.RawMessage `json:"report"`
			Graph            json.RawMessage `json:"graph"`
		}
		err = json.NewDecoder(resp.Body).Decode(&srv)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/adapt %d: %v", preset, resp.StatusCode, err)
		}
		if srv.Variant != res.Variant.String() || srv.VariantConfident != res.VariantConfident ||
			!bytes.Equal(srv.Report, report) || !bytes.Equal(srv.Graph, bytes.TrimSpace(graphJSON.Bytes())) {
			t.Errorf("%s: server answered %s (confident %v) with report %s; pipeline %s (confident %v) with report %s, or the graphs differ",
				preset, srv.Variant, srv.VariantConfident, srv.Report, res.Variant, res.VariantConfident, report)
		}

		// The CLI: its graph file and the report lines on stderr.
		out := filepath.Join(dir, "graph.json")
		stderr := captureStderr(t, func() error {
			return runAdapt(ctx, []string{"-in", sessions, "-out", out, "-graph-format", "json"})
		})
		cliGraph, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		wantStderr := fmt.Sprintf("recommended variant: %s (confident=%v, single-alt=%.1f%%, nmi=%.3f)\ngraph: %d items, %d edges (variant %s)\n",
			res.Variant, res.VariantConfident, 100*res.Report.SingleAlternativeShare, res.Report.MeanPairwiseNMI,
			res.Graph.NumNodes(), res.Graph.NumEdges(), res.Variant)
		if !bytes.Equal(cliGraph, graphJSON.Bytes()) || stderr != wantStderr {
			t.Errorf("%s: CLI printed %q, want %q, or its graph differs", preset, stderr, wantStderr)
		}
	}
}

// captureStderr runs f with os.Stderr redirected to a file and returns
// what it printed.
func captureStderr(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := os.Stderr
	os.Stderr = tmp
	ferr := f()
	os.Stderr = old
	if ferr != nil {
		t.Fatalf("command failed: %v", ferr)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
