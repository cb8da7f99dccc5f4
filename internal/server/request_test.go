package server

// Tests of the one solve path: every endpoint that solves — /v1/solve
// inline and by reference, /v1/pipeline and /v1/jobs — parses the same
// request, validates it once, resolves it and answers it the same way.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"

	"prefcover/internal/jobs"
)

// workCounters is the /metrics text of the two families that move when a
// request reaches the prefix cache or the solver.
func workCounters(t *testing.T, baseURL string) string {
	t.Helper()
	_, text := scrapeMetrics(t, baseURL)
	var lines []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "prefcover_solver_solves_total") ||
			strings.HasPrefix(line, "prefcover_solvecache_requests_total") {
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}

// TestInvalidRequestsAnswerAlike sends each invalid request to every
// endpoint that solves. Each answers 400 with the validator's message, and
// none reaches the prefix cache or the solver.
func TestInvalidRequestsAnswerAlike(t *testing.T) {
	_, ts := newServingServer(t, Config{Limits: Limits{MaxSolveK: 5}, Jobs: jobs.Options{Workers: 1}})
	g := servingGraph(t, 40)
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo", jsonHdr, graphJSON(t, g))
	before := workCounters(t, ts.URL)

	for _, tc := range []struct {
		name, query, job, want string
	}{
		{"negative k", "k=-1", `"k":-1`, "negative k -1"},
		{"k above max-k", "k=6", `"k":6`, "k 6 exceeds server limit 5"},
		{"threshold 1.5", "threshold=1.5", `"threshold":1.5`, "threshold 1.5 outside (0,1]"},
		// JSON has no NaN: the job body carries the bare token, which the
		// decoder rejects before the validator sees it.
		{"threshold NaN", "threshold=NaN", `"threshold":NaN`, "threshold NaN outside (0,1]"},
		{"more pins than k", "k=1&pin=a&pin=b", `"k":1,"pins":["a","b"]`, "2 pins exceed k=1"},
		{"unknown strategy", "k=2&strategy=fast", `"k":2,"strategy":"fast"`,
			`greedy: unknown strategy "fast" (want scan, parallel, lazy, lazyflat or sketch)`},
		{"negative workers", "k=2&workers=-1", `"k":2,"workers":-1`, "negative workers -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			query := "?variant=i&" + tc.query
			for endpoint, send := range map[string]func() (*http.Response, []byte){
				"inline": func() (*http.Response, []byte) {
					return doReq(t, http.MethodPost, ts.URL+"/v1/solve"+query, jsonHdr, graphJSON(t, g))
				},
				"by reference": func() (*http.Response, []byte) {
					return doReq(t, http.MethodPost, ts.URL+"/v1/solve"+query, jsonHdr, []byte(`{"graph_ref":"demo"}`))
				},
				"pipeline": func() (*http.Response, []byte) {
					return doReq(t, http.MethodPost, ts.URL+"/v1/pipeline"+query, jsonHdr, []byte(tinyClickstream))
				},
				"job": func() (*http.Response, []byte) {
					return doReq(t, http.MethodPost, ts.URL+"/v1/jobs", jsonHdr,
						[]byte(`{"graph_ref":"demo","variant":"i",`+tc.job+`}`))
				},
			} {
				resp, data := send()
				var env struct {
					Error string `json:"error"`
				}
				_ = json.Unmarshal(data, &env)
				want := tc.want
				if endpoint == "job" && tc.name == "threshold NaN" {
					want = "jobs: parsing request: invalid character 'N' looking for beginning of value"
				}
				if resp.StatusCode != http.StatusBadRequest || env.Error != want {
					t.Errorf("%s: %d %q, want 400 %q", endpoint, resp.StatusCode, env.Error, want)
				}
			}
		})
	}
	if after := workCounters(t, ts.URL); after != before {
		t.Fatalf("invalid requests reached the cache or the solver:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestMaxSolveKBoundsThreshold: with -max-k set, a threshold solve without
// k stops at the cap, and an unmet threshold answers reached:false there,
// inline, by reference and as a job alike.
func TestMaxSolveKBoundsThreshold(t *testing.T) {
	s, ts := newServingServer(t, Config{Limits: Limits{MaxSolveK: 5}, Jobs: jobs.Options{Workers: 1}})
	g := servingGraph(t, 300)
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/demo", jsonHdr, graphJSON(t, g))

	resp, inline := doReq(t, http.MethodPost, ts.URL+"/v1/solve?variant=i&threshold=1", jsonHdr, graphJSON(t, g))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline status = %d: %s", resp.StatusCode, inline)
	}
	_, byRef := solveRefHTTP(t, ts.URL, "demo", "?variant=i&threshold=1")
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", jsonHdr,
		[]byte(`{"graph_ref":"demo","variant":"i","threshold":1}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, data)
	}
	var submitted jobPayload
	if err := json.Unmarshal(data, &submitted); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, ts.URL, submitted.ID); final.State != "done" {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}
	snap, _ := s.jobs.Get(submitted.ID)
	for name, body := range map[string][]byte{"inline": inline, "job": snap.Result.(json.RawMessage)} {
		var got solveResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.K != 5 || got.Reached || !slices.Equal(got.Order, byRef.Order) {
			t.Errorf("%s: k=%d reached=%v order %v; want the by-reference answer k=5 reached=false %v",
				name, got.K, got.Reached, got.Order, byRef.Order)
		}
	}
	if byRef.K != 5 || byRef.Reached {
		t.Fatalf("by reference: k=%d reached=%v, want 5 and false", byRef.K, byRef.Reached)
	}

	// A threshold the cap reaches answers as without the limit.
	_, reached := solveRefHTTP(t, ts.URL, "demo", "?variant=i&threshold=0.01")
	if !reached.Reached || reached.K > 5 {
		t.Fatalf("reachable threshold: k=%d reached=%v", reached.K, reached.Reached)
	}
}

// TestSharedContentKeepsCache: two names with identical content share one
// content hash, so deleting one must not drop the other's cached prefix.
func TestSharedContentKeepsCache(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	body := graphJSON(t, servingGraph(t, 120))
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/a", jsonHdr, body)
	doReq(t, http.MethodPut, ts.URL+"/v1/graphs/b", jsonHdr, body)
	for i, want := range []string{"miss", "hit"} {
		if resp, _ := solveRefHTTP(t, ts.URL, "b", "?variant=i&k=8"); resp.Header.Get("X-Prefcover-Cache") != want {
			t.Fatalf("solve %d of b: cache %q, want %q", i, resp.Header.Get("X-Prefcover-Cache"), want)
		}
	}
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/graphs/a", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE a status = %d", resp.StatusCode)
	}
	if resp, _ := solveRefHTTP(t, ts.URL, "b", "?variant=i&k=8"); resp.Header.Get("X-Prefcover-Cache") != "hit" {
		t.Fatalf("solve of b after DELETE a: cache %q, want hit", resp.Header.Get("X-Prefcover-Cache"))
	}
}

// TestPipelinePins: /v1/pipeline takes the same request as /v1/solve, so
// its pin parameters are honoured and an unknown label is a 400.
func TestPipelinePins(t *testing.T) {
	_, ts := newServingServer(t, Config{})
	jsonHdr := http.Header{"Content-Type": []string{"application/json"}}
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/pipeline?k=2&pin=gold", jsonHdr, []byte(tinyClickstream))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Solve solveResponse `json:"solve"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Solve.Order) != 2 || out.Solve.Order[0] != "gold" {
		t.Fatalf("order = %v, want the pin gold first", out.Solve.Order)
	}
	resp, data = doReq(t, http.MethodPost, ts.URL+"/v1/pipeline?k=2&pin=nope", jsonHdr, []byte(tinyClickstream))
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("unknown item nope")) {
		t.Fatalf("unknown pin: %d %s", resp.StatusCode, data)
	}
}
