package server

// Compatibility of the legacy strategy inputs with the single kernel-backed
// CELF path: old query params and job fields still select the strategy they
// always did, the default and its aliases keep the "lazy" label, and every
// deterministic strategy shares one solve-cache lineage.

import (
	"encoding/json"
	"net/http"
	"net/url"
	"testing"

	"prefcover"
)

// TestStrategyLabelCompat: the solver label a request is counted under, for
// each spelling of the strategy inputs.
func TestStrategyLabelCompat(t *testing.T) {
	s, ts := newServingServer(t, Config{})
	body := graphJSON(t, servingGraph(t, 80))
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	for query, want := range map[string]string{
		"":                   "lazy",
		"&strategy=lazy":     "lazy",
		"&strategy=lazyflat": "lazy",
		"&lazy=1":            "lazy",
		"&lazy=0":            "scan",
		"&lazy=false":        "scan",
		"&lazy=0&workers=3":  "parallel",
		"&strategy=sketch":   "lazy",
	} {
		before := s.met.solves.With(want, "ok").Value()
		resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/solve?variant=i&k=5"+query, jsonHdr, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", query, resp.StatusCode, data)
		}
		if got := s.met.solves.With(want, "ok").Value() - before; got != 1 {
			t.Errorf("%q: %d solves counted under strategy %q, want 1", query, got, want)
		}
	}
	for _, alias := range []string{"lazyflat", "sketch"} {
		if got := s.met.solves.With(alias, "ok").Value(); got != 0 {
			t.Errorf("%d solves counted under the %s alias", got, alias)
		}
	}
}

// TestJobLazyFalseRunsScan: a job body with the legacy "lazy": false still
// parses and runs the scan.
func TestJobLazyFalseRunsScan(t *testing.T) {
	s, ts := newServingServer(t, Config{})
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, servingGraph(t, 80)))
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/jobs",
		http.Header{"Content-Type": []string{"application/json"}},
		[]byte(`{"graph_ref":"demo","variant":"i","k":6,"lazy":false}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var submitted jobPayload
	if err := json.Unmarshal(data, &submitted); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, ts.URL, submitted.ID); final.State != "done" {
		t.Fatalf("job = %+v", final)
	}
	if got := s.met.solves.With("scan", "ok").Value(); got != 1 {
		t.Fatalf("scan solves = %d, want 1", got)
	}
}

// TestStrategiesShareCacheLineage: the strategy is not part of the cache
// key, so a sketch solve after a default solve on the same graph and pins
// is answered from the one cached prefix.
func TestStrategiesShareCacheLineage(t *testing.T) {
	s, ts := newServingServer(t, Config{})
	g := labeledGraph(t, 120)
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo",
		http.Header{"Content-Type": []string{"application/json"}}, graphJSON(t, g))
	pins := "&pin=" + url.QueryEscape(g.Label(9))
	resp, first := solveRefHTTP(t, ts.URL, "demo", "?variant=i&k=12"+pins)
	if got := resp.Header.Get("X-Prefcover-Cache"); got != "miss" {
		t.Fatalf("default solve cache header = %q", got)
	}
	for _, strategy := range []string{"sketch", "scan", "parallel", "lazyflat"} {
		resp, again := solveRefHTTP(t, ts.URL, "demo", "?variant=i&k=12&strategy="+strategy+pins)
		if got := resp.Header.Get("X-Prefcover-Cache"); got != "hit" {
			t.Fatalf("%s after default: cache header = %q, want hit", strategy, got)
		}
		if again.Cover != first.Cover || len(again.Order) != len(first.Order) {
			t.Fatalf("%s hit differs from the default solve", strategy)
		}
	}
	if n := s.Cache().Len(); n != 1 {
		t.Fatalf("cache holds %d lineages, want 1", n)
	}
}

// TestPinSynthesizedLabel: an unlabeled graph names its items "#<index>" in
// solve responses, and a client can pin exactly those names back, inline
// and by reference.
func TestPinSynthesizedLabel(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	g := servingGraph(t, 60) // unlabeled
	body := graphJSON(t, g)
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo", jsonHdr, body)
	params := "?variant=i&k=4&pin=" + url.QueryEscape("#3")

	want, err := prefcover.Solve(g, prefcover.Options{Variant: prefcover.Independent, K: 4, Pinned: []int32{3}})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/solve"+params, jsonHdr, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline status %d: %s", resp.StatusCode, data)
	}
	var inline solveResponse
	if err := json.Unmarshal(data, &inline); err != nil {
		t.Fatal(err)
	}
	_, byRef := solveRefHTTP(t, ts.URL, "demo", params)
	for name, got := range map[string]solveResponse{"inline": inline, "ref": byRef} {
		if len(got.Order) != len(want.Order) || got.Order[0] != "#3" {
			t.Fatalf("%s: order %v, want #3 first", name, got.Order)
		}
		for i, v := range want.Order {
			if got.Order[i] != g.Label(v) {
				t.Fatalf("%s: order[%d] = %q, want %q", name, i, got.Order[i], g.Label(v))
			}
		}
	}
	for _, bad := range []string{"#60", "#03", "#-1"} {
		resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/solve?variant=i&k=4&pin="+url.QueryEscape(bad), jsonHdr, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("pin %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
